(* The multicore engine: the determinism contract (bit-identical results
   for every worker count), sharded-queue correctness, error propagation,
   memo-cache semantics, and worker-telemetry flushing. *)

let proto = Netsim.Packet.Tcp
let region = Internet.Region.Ohio

(* A deliberately small control: these tests pin engine behaviour, not
   classification accuracy. *)
let control =
  lazy (Controls.get ~runs:3 ~quic_runs:2 ~seed:11)

let websites = lazy (Internet.Population.generate ~n:32 ~seed:5 ())

(* the jobs=1 path never spawns a domain, so it is the ground truth the
   parallel paths must reproduce *)
let reference_labels =
  lazy
    (Internet.Census.labels ~jobs:1 ~control:(Lazy.force control) ~proto ~region
       (Lazy.force websites))

let worker_counts = [ 1; 2; 4; 8 ]

(* ---------------- pool ---------------- *)

let test_map_order () =
  let xs = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map preserves order at jobs=%d" jobs)
        expected
        (Engine.Pool.map ~jobs (fun x -> x * x) xs))
    worker_counts

let test_map_empty_and_tiny () =
  Alcotest.(check (array int)) "empty input" [||] (Engine.Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int))
    "more workers than jobs" [| 2; 4 |]
    (Engine.Pool.map ~jobs:8 (fun x -> 2 * x) [| 1; 2 |])

let test_map_error_propagates () =
  List.iter
    (fun jobs ->
      match
        Engine.Pool.map ~jobs
          (fun x -> if x mod 10 = 7 then failwith (Printf.sprintf "boom %d" x) else x)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the job's exception to reach the caller"
      | exception Failure msg ->
        (* jobs 7, 17, 27, ... all fail; the lowest index must win so the
           error is deterministic too *)
        Alcotest.(check string)
          (Printf.sprintf "lowest failing job reported at jobs=%d" jobs)
          "boom 7" msg)
    worker_counts

let test_map_list () =
  Alcotest.(check (list int))
    "map_list preserves order" [ 1; 2; 3; 4; 5 ]
    (Engine.Pool.map_list ~jobs:3 (fun x -> x + 1) [ 0; 1; 2; 3; 4 ])

let test_worker_telemetry_flushed () =
  Obs.Runtime.with_armed (fun () ->
      Obs.Metrics.reset ();
      ignore
        (Engine.Pool.map ~jobs:4
           (fun i ->
             Obs.Metrics.incr (Obs.Metrics.counter "test.engine.work");
             i)
           (Array.init 20 Fun.id));
      Alcotest.(check int) "every worker increment reaches the collector" 20
        (Obs.Metrics.counter_value (Obs.Metrics.counter "test.engine.work"));
      Alcotest.(check int) "pool records the job count" 20
        (Obs.Metrics.counter_value (Obs.Metrics.counter "engine.pool.jobs"));
      Obs.Metrics.reset ())

(* Every store on the collector list, at once: each task records into
   metrics, the profiler, provenance, the flight recorder (a Debug-level
   kind, so the worker must inherit the level too), the pool trace and
   the histogram registry. jobs=1 records straight into the caller, so
   a store missing from Obs.Collector.all shows up as a difference at
   jobs=2 or 4. *)
let collected_state ~jobs =
  Obs.Metrics.reset ();
  Obs.Histogram.reset ();
  Obs.Flight.clear ();
  ignore (Obs.Pooltrace.drain ());
  ignore (Obs.Provenance.drain_reports ());
  let level = Obs.Runtime.level () in
  Obs.Runtime.set_level Obs.Runtime.Debug;
  Obs.Provenance.enable_collect ();
  Obs.Pooltrace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Runtime.set_level level;
      Obs.Provenance.disable_collect ();
      Obs.Pooltrace.set_enabled false)
    (fun () ->
      let seen, profile =
        Obs.Runtime.with_armed (fun () ->
            Obs.Prof.record (fun () ->
                Engine.Pool.map ~jobs
                  (fun i ->
                    Obs.Span.with_ ~name:"test.collector.span" (fun () ->
                        Obs.Metrics.incr (Obs.Metrics.counter "test.collector.tasks");
                        Obs.Histogram.observe (Obs.Histogram.get "test.collector.h")
                          (float_of_int i);
                        Obs.Flight.enqueue ~time:(float_of_int i) ~size:i ~queue_bytes:0;
                        Obs.Provenance.emit
                          (Obs.Provenance.make ~subject:(string_of_int i) ~label:"cubic"
                             ~confidence:1.0 ~margin:1.0 ~features:[] ~stages:[]
                             ~candidates:[]);
                        (Obs.Runtime.armed (), Obs.Runtime.level () = Obs.Runtime.Debug)))
                  (Array.init 12 Fun.id)))
      in
      let h = Obs.Histogram.get "test.collector.h" in
      let ints xs = String.concat "," (List.map string_of_int xs) in
      let state =
        [
          ( "runtime",
            String.concat ","
              (Array.to_list
                 (Array.map
                    (fun (armed, debug) -> Printf.sprintf "%b/%b" armed debug)
                    seen)) );
          ( "metrics",
            string_of_int
              (Obs.Metrics.counter_value (Obs.Metrics.counter "test.collector.tasks")) );
          ( "prof",
            match Obs.Prof.find profile "test.collector.span" with
            | Some s -> string_of_int s.Obs.Prof.count
            | None -> "none" );
          ( "provenance",
            String.concat ","
              (List.sort compare
                 (List.map
                    (fun (r : Obs.Provenance.report) -> r.Obs.Provenance.subject)
                    (Obs.Provenance.drain_reports ()))) );
          ( "flight",
            ints
              (List.sort compare
                 (List.filter_map
                    (fun (e : Obs.Flight.event) ->
                      if e.Obs.Flight.kind = Obs.Flight.Enqueue then
                        Some (int_of_float e.Obs.Flight.time)
                      else None)
                    (Obs.Flight.drain ()))) );
          ( "pooltrace",
            ints
              (List.sort compare
                 (List.map
                    (fun (t : Obs.Pooltrace.task) -> t.Obs.Pooltrace.index)
                    (Obs.Pooltrace.drain ()).Obs.Pooltrace.tasks)) );
          ( "histogram",
            Printf.sprintf "%d %g [%s]" (Obs.Histogram.count h) (Obs.Histogram.sum h)
              (String.concat ";"
                 (List.map
                    (fun (b, n) -> Printf.sprintf "%d:%d" b n)
                    (Obs.Histogram.buckets h))) );
        ]
      in
      Obs.Metrics.reset ();
      Obs.Histogram.reset ();
      state)

let test_collector_list_carries_every_store () =
  let reference = collected_state ~jobs:1 in
  Alcotest.(check string) "the serial run recorded every task" "12"
    (List.assoc "metrics" reference);
  Alcotest.(check string) "the serial run saw armed Debug in every task"
    (String.concat "," (List.init 12 (fun _ -> "true/true")))
    (List.assoc "runtime" reference);
  List.iter
    (fun jobs ->
      List.iter2
        (fun (store, want) (_, got) ->
          Alcotest.(check string) (Printf.sprintf "%s at jobs=%d equals jobs=1" store jobs)
            want got)
        reference (collected_state ~jobs))
    [ 2; 4 ]

(* ---------------- pool task tracing ---------------- *)

let traced_run ~jobs n =
  Obs.Pooltrace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Pooltrace.set_enabled false)
    (fun () ->
      ignore (Engine.Pool.map ~jobs (fun x -> x * x) (Array.init n Fun.id));
      Obs.Pooltrace.drain ())

let test_trace_covers_every_task () =
  Obs.Histogram.reset ();
  let n = 32 in
  let trace = traced_run ~jobs:4 n in
  Alcotest.(check int) "job count recorded" n trace.Obs.Pooltrace.jobs;
  Alcotest.(check int) "one sample per task" n (List.length trace.Obs.Pooltrace.tasks);
  let indices =
    List.sort_uniq compare
      (List.map (fun t -> t.Obs.Pooltrace.index) trace.Obs.Pooltrace.tasks)
  in
  Alcotest.(check (list int)) "every index covered exactly once" (List.init n Fun.id) indices;
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check int)
        (Printf.sprintf "task %d owned by shard index mod workers" t.Obs.Pooltrace.index)
        (t.Obs.Pooltrace.index mod 4) t.Obs.Pooltrace.shard;
      Alcotest.(check bool)
        (Printf.sprintf "task %d stolen iff run off-shard" t.Obs.Pooltrace.index)
        t.Obs.Pooltrace.stolen
        (t.Obs.Pooltrace.worker <> t.Obs.Pooltrace.shard);
      Alcotest.(check bool)
        (Printf.sprintf "task %d timestamps ordered" t.Obs.Pooltrace.index)
        true
        (t.Obs.Pooltrace.t_submit <= t.Obs.Pooltrace.t_start
        && t.Obs.Pooltrace.t_start <= t.Obs.Pooltrace.t_finish))
    trace.Obs.Pooltrace.tasks;
  (* the record path also feeds the wait/run histograms *)
  Alcotest.(check int) "queue-wait histogram observed every task" n
    (Obs.Histogram.count (Obs.Histogram.get "pool.queue_wait_us"));
  Obs.Histogram.reset ()

let test_trace_serial_path () =
  Obs.Histogram.reset ();
  let trace = traced_run ~jobs:1 8 in
  Alcotest.(check int) "serial path records every task" 8
    (List.length trace.Obs.Pooltrace.tasks);
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Alcotest.(check bool) "nothing stolen on the serial path" false t.Obs.Pooltrace.stolen;
      Alcotest.(check int) "worker 0" 0 t.Obs.Pooltrace.worker)
    trace.Obs.Pooltrace.tasks;
  Obs.Histogram.reset ()

let test_trace_off_records_nothing () =
  ignore (Obs.Pooltrace.drain ());
  ignore (Engine.Pool.map ~jobs:4 Fun.id (Array.init 16 Fun.id));
  let trace = Obs.Pooltrace.drain () in
  Alcotest.(check int) "disabled tracing buffers nothing" 0
    (List.length trace.Obs.Pooltrace.tasks)

let test_trace_round_trip_and_report () =
  Obs.Histogram.reset ();
  let trace = traced_run ~jobs:2 12 in
  let once = Obs.Pooltrace.to_string trace in
  let parsed = Obs.Pooltrace.of_string once in
  Alcotest.(check string) "to_string/of_string round-trip byte identical" once
    (Obs.Pooltrace.to_string parsed);
  Alcotest.(check string) "report is a pure function of the trace"
    (Obs.Pooltrace.report trace) (Obs.Pooltrace.report parsed);
  Alcotest.(check string) "chrome export deterministic for equal traces"
    (Obs.Pooltrace.to_chrome_string trace)
    (Obs.Pooltrace.to_chrome_string parsed);
  (* schema skew is a typed error, not a silent misparse *)
  let replace ~needle ~by hay =
    let nl = String.length needle in
    let rec find i =
      if i + nl > String.length hay then None
      else if String.sub hay i nl = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> hay
    | Some i ->
      String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (String.length hay - i - nl)
  in
  let version_field v = Printf.sprintf "\"version\":%d" v in
  let skewed =
    let with_space = replace
        ~needle:(Printf.sprintf "\"version\": %d" Obs.Pooltrace.schema_version)
        ~by:(Printf.sprintf "\"version\": %d" (Obs.Pooltrace.schema_version + 1))
        once
    in
    if with_space <> once then with_space
    else
      replace ~needle:(version_field Obs.Pooltrace.schema_version)
        ~by:(version_field (Obs.Pooltrace.schema_version + 1))
        once
  in
  (match Obs.Pooltrace.of_string skewed with
  | _ -> Alcotest.fail "expected Version_mismatch"
  | exception Obs.Envelope.Version_mismatch { got; _ } ->
    Alcotest.(check int) "mismatch carries the skewed version"
      (Obs.Pooltrace.schema_version + 1) got);
  Obs.Histogram.reset ()

(* ---------------- memo ---------------- *)

let test_memo_counters () =
  let m = Engine.Memo.create () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    !calls * 100
  in
  Alcotest.(check int) "cold lookup computes" 100 (Engine.Memo.find_or_compute m "k" compute);
  Alcotest.(check int) "warm lookup replays the stored value" 100
    (Engine.Memo.find_or_compute m "k" compute);
  Alcotest.(check int) "computed exactly once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Engine.Memo.hits m);
  Alcotest.(check int) "one miss" 1 (Engine.Memo.misses m);
  Alcotest.(check int) "one entry" 1 (Engine.Memo.length m);
  Alcotest.(check (option int)) "find peeks without counting" (Some 100) (Engine.Memo.find m "k");
  Alcotest.(check int) "find did not count a hit" 1 (Engine.Memo.hits m);
  Engine.Memo.clear m;
  Alcotest.(check int) "clear empties" 0 (Engine.Memo.length m);
  Alcotest.(check int) "clear resets hits" 0 (Engine.Memo.hits m)

let test_memo_under_contention () =
  let m = Engine.Memo.create () in
  let results =
    Engine.Pool.map ~jobs:8
      (fun i -> Engine.Memo.find_or_compute m (i mod 4) (fun () -> i mod 4))
      (Array.init 64 Fun.id)
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i mod 4) v)
    results;
  (* single-flight: waiters on an in-flight compute count as hits, so
     hits + misses always equals the lookup count, and the table holds
     one value per key *)
  Alcotest.(check int) "hits + misses = lookups" 64 (Engine.Memo.hits m + Engine.Memo.misses m);
  Alcotest.(check int) "one entry per key" 4 (Engine.Memo.length m)

let test_memo_single_flight () =
  let m = Engine.Memo.create () in
  let computes = Atomic.make 0 in
  let results =
    Engine.Pool.map ~jobs:4
      (fun i ->
        Engine.Memo.find_or_compute m (i mod 2) (fun () ->
            Atomic.incr computes;
            (* hold the compute open long enough for the other domains to
               pile up behind the in-flight entry *)
            let until = Unix.gettimeofday () +. 0.05 in
            while Unix.gettimeofday () < until do
              Domain.cpu_relax ()
            done;
            i mod 2))
      (Array.init 32 Fun.id)
  in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i mod 2) v)
    results;
  Alcotest.(check int) "exactly one compute per key across 4 domains" 2
    (Atomic.get computes);
  Alcotest.(check int) "misses count computations" 2 (Engine.Memo.misses m);
  Alcotest.(check int) "waiters count as hits" 30 (Engine.Memo.hits m);
  Alcotest.(check int) "one entry per key" 2 (Engine.Memo.length m)

let test_memo_failed_compute_clears_in_flight () =
  let m = Engine.Memo.create () in
  (match Engine.Memo.find_or_compute m "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the compute's exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "no entry left behind" 0 (Engine.Memo.length m);
  Alcotest.(check int) "a later lookup recomputes" 7
    (Engine.Memo.find_or_compute m "k" (fun () -> 7))

(* ---------------- census determinism ---------------- *)

let test_census_determinism () =
  let control = Lazy.force control in
  let websites = Lazy.force websites in
  let reference = Lazy.force reference_labels in
  let reference_tally = Internet.Census.tally_of_labels reference in
  List.iter
    (fun jobs ->
      let labels = Internet.Census.labels ~jobs ~control ~proto ~region websites in
      Alcotest.(check bool)
        (Printf.sprintf "per-site labels at jobs=%d match jobs=1" jobs)
        true (labels = reference);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "tally at jobs=%d matches jobs=1" jobs)
        reference_tally
        (Internet.Census.run ~jobs ~control ~proto ~region websites))
    [ 2; 4; 8 ]

let test_census_cache () =
  let control = Lazy.force control in
  let websites = Lazy.force websites in
  let cache = Internet.Census.create_cache () in
  let cold = Internet.Census.labels ~jobs:4 ~cache ~control ~proto ~region websites in
  Alcotest.(check int) "cold run misses every site" 32 (Internet.Census.cache_misses cache);
  let warm = Internet.Census.labels ~jobs:4 ~cache ~control ~proto ~region websites in
  Alcotest.(check int) "warm run hits every site" 32 (Internet.Census.cache_hits cache);
  Alcotest.(check bool) "warm results byte-identical to cold" true (cold = warm);
  Alcotest.(check bool) "cache is transparent: same results as no cache" true
    (cold = Lazy.force reference_labels)

let suite =
  [
    Alcotest.test_case "pool map preserves order at every worker count" `Quick test_map_order;
    Alcotest.test_case "pool map: empty input, workers > jobs" `Quick test_map_empty_and_tiny;
    Alcotest.test_case "pool map re-raises the lowest-indexed error" `Quick
      test_map_error_propagates;
    Alcotest.test_case "pool map_list preserves order" `Quick test_map_list;
    Alcotest.test_case "worker telemetry is flushed at join" `Quick
      test_worker_telemetry_flushed;
    Alcotest.test_case "collector list carries every store at jobs 1/2/4" `Quick
      test_collector_list_carries_every_store;
    Alcotest.test_case "pool trace covers every task at jobs=4" `Quick
      test_trace_covers_every_task;
    Alcotest.test_case "pool trace on the serial path" `Quick test_trace_serial_path;
    Alcotest.test_case "pool tracing off records nothing" `Quick
      test_trace_off_records_nothing;
    Alcotest.test_case "pool trace round-trip, report purity, version gate" `Quick
      test_trace_round_trip_and_report;
    Alcotest.test_case "memo hit/miss counters" `Quick test_memo_counters;
    Alcotest.test_case "memo under contention" `Quick test_memo_under_contention;
    Alcotest.test_case "memo single-flight: one compute per key" `Quick
      test_memo_single_flight;
    Alcotest.test_case "memo failed compute clears in-flight" `Quick
      test_memo_failed_compute_clears_in_flight;
    Alcotest.test_case "32-site census identical for jobs 1/2/4/8" `Quick
      test_census_determinism;
    Alcotest.test_case "census cache: warm run all hits, byte-identical" `Quick
      test_census_cache;
  ]
