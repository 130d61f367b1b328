(* The crash-safe census service: journal durability (CRC framing, torn
   tail repair, schema versioning, compaction determinism, bounded
   cache), queue backpressure and priorities, the watchdog's typed
   timeout path, the delta census across epochs, and the headline
   recovery invariant — a run killed mid-store and resumed produces a
   byte-identical final store. *)

let proto = Netsim.Packet.Tcp
let region = Internet.Region.Ohio

(* small control: these tests pin service behaviour, not accuracy *)
let control =
  lazy (Controls.get ~runs:3 ~quic_runs:2 ~seed:11)

let with_store f =
  let path = Filename.temp_file "serve" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- journal ---- *)

let test_journal_roundtrip () =
  with_store (fun path ->
      let j = Engine.Journal.open_ path in
      Engine.Journal.put j ~key:"b" ~value:"2";
      Engine.Journal.put j ~key:"a" ~value:"1";
      Engine.Journal.put j ~key:"b" ~value:"22";
      (* last write wins, with "quoted \" and\nnewline" surviving framing *)
      Engine.Journal.put j ~key:"odd \"key\"" ~value:"line1\nline2";
      Alcotest.(check (option string)) "overwrite visible" (Some "22")
        (Engine.Journal.find j "b");
      Alcotest.(check int) "live records" 3 (Engine.Journal.length j);
      Engine.Journal.close j;
      let j = Engine.Journal.open_ path in
      Alcotest.(check (option string)) "a survives reopen" (Some "1")
        (Engine.Journal.find j "a");
      Alcotest.(check (option string)) "overwrite survives reopen" (Some "22")
        (Engine.Journal.find j "b");
      Alcotest.(check (option string)) "exotic bytes survive framing"
        (Some "line1\nline2")
        (Engine.Journal.find j "odd \"key\"");
      Alcotest.(check (option string)) "absent key" None (Engine.Journal.find j "zzz");
      Alcotest.(check (list string)) "keys sorted"
        [ "a"; "b"; "odd \"key\"" ] (Engine.Journal.keys j);
      Alcotest.(check (list string)) "fold in sorted key order" [ "a"; "b"; "odd \"key\"" ]
        (List.rev (Engine.Journal.fold (fun k _ acc -> k :: acc) j []));
      Engine.Journal.close j)

let test_journal_torn_tail () =
  with_store (fun path ->
      let j = Engine.Journal.open_ path in
      Engine.Journal.put j ~key:"a" ~value:"1";
      Engine.Journal.put j ~key:"b" ~value:"2";
      Engine.Journal.close j;
      let good = read_file path in
      (* a SIGKILL mid-write leaves a partial frame with no newline *)
      append path "deadbeef {\"key\":\"c\",\"val";
      let warned = ref "" in
      let j = Engine.Journal.open_ ~on_warning:(fun m -> warned := m) path in
      Alcotest.(check int) "one torn record dropped" 1 (Engine.Journal.torn_dropped j);
      Alcotest.(check bool) "warning names the torn tail" true
        (contains ~needle:"torn" !warned);
      Alcotest.(check int) "good records survive" 2 (Engine.Journal.length j);
      Alcotest.(check bool) "file truncated back to the good prefix" true
        (read_file path = good);
      (* the repaired journal accepts appends at the repaired offset *)
      Engine.Journal.put j ~key:"c" ~value:"3";
      Engine.Journal.close j;
      let j = Engine.Journal.open_ path in
      Alcotest.(check (option string)) "append after repair durable" (Some "3")
        (Engine.Journal.find j "c");
      Engine.Journal.close j)

let test_journal_corrupt_line_drops_suffix () =
  with_store (fun path ->
      let j = Engine.Journal.open_ path in
      Engine.Journal.put j ~key:"a" ~value:"1";
      Engine.Journal.close j;
      (* a bad CRC poisons its line and everything after it *)
      append path "00000000 {\"key\":\"x\",\"value\":\"y\"}\n";
      append path (Printf.sprintf "%08x %s\n" 0 "not json at all");
      let j = Engine.Journal.open_ ~on_warning:ignore path in
      Alcotest.(check int) "both suspect records dropped" 2
        (Engine.Journal.torn_dropped j);
      Alcotest.(check int) "prefix intact" 1 (Engine.Journal.length j);
      Engine.Journal.close j)

let test_journal_version_mismatch () =
  with_store (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "{\"kind\":\"nebby_journal\",\"version\":99}\n");
      Alcotest.check_raises "future schema fails loudly"
        (Obs.Envelope.Version_mismatch
           { kind = "nebby_journal"; expected = Engine.Journal.schema_version; got = 99 })
        (fun () -> ignore (Engine.Journal.open_ path));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "{\"kind\":\"other\",\"version\":1}\n");
      match Engine.Journal.open_ path with
      | _ -> Alcotest.fail "foreign file must not open as a journal"
      | exception Obs.Json.Parse_error _ -> ())

let test_journal_compaction_deterministic () =
  with_store (fun path_a ->
      with_store (fun path_b ->
          (* same final map, different insertion histories *)
          let a = Engine.Journal.open_ path_a in
          Engine.Journal.put a ~key:"x" ~value:"stale";
          Engine.Journal.put a ~key:"y" ~value:"2";
          Engine.Journal.put a ~key:"x" ~value:"1";
          Engine.Journal.compact a;
          Engine.Journal.close a;
          let b = Engine.Journal.open_ path_b in
          Engine.Journal.put b ~key:"y" ~value:"2";
          Engine.Journal.put b ~key:"x" ~value:"1";
          Engine.Journal.compact b;
          Engine.Journal.close b;
          Alcotest.(check bool) "histories converge byte-identically" true
            (read_file path_a = read_file path_b);
          (* compacting again changes nothing *)
          let once = read_file path_a in
          let a = Engine.Journal.open_ path_a in
          Engine.Journal.compact a;
          Alcotest.(check (option string)) "reads survive compaction" (Some "1")
            (Engine.Journal.find a "x");
          Engine.Journal.close a;
          Alcotest.(check bool) "compaction idempotent" true (once = read_file path_a)))

let test_journal_bounded_cache () =
  with_store (fun path ->
      let j = Engine.Journal.open_ ~max_entries:2 path in
      for i = 1 to 6 do
        Engine.Journal.put j ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)
      done;
      (* most entries were evicted from memory; finds re-read from disk
         through the CRC check and still agree *)
      for i = 1 to 6 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%d readable" i)
          (Some (string_of_int i))
          (Engine.Journal.find j (Printf.sprintf "k%d" i))
      done;
      Engine.Journal.close j;
      match Engine.Journal.put j ~key:"late" ~value:"x" with
      | () -> Alcotest.fail "put after close must fail"
      | exception Failure _ -> ())

(* ---- job queue ---- *)

let test_queue_backpressure () =
  let q = Serve.Job_queue.create ~high_water:2 () in
  Alcotest.(check bool) "first accepted" true (Serve.Job_queue.push q "a" = Serve.Job_queue.Accepted);
  Alcotest.(check bool) "second accepted" true (Serve.Job_queue.push q "b" = Serve.Job_queue.Accepted);
  Alcotest.(check bool) "high water refuses" true
    (Serve.Job_queue.push q "c" = Serve.Job_queue.Overloaded);
  Alcotest.(check int) "rejection counted" 1 (Serve.Job_queue.overloads q);
  Alcotest.(check int) "rejected push does not grow the queue" 2 (Serve.Job_queue.depth q);
  Alcotest.(check bool) "force bypasses the high water" true
    (Serve.Job_queue.push q ~force:true "r" = Serve.Job_queue.Accepted);
  Alcotest.(check int) "forced push admitted" 3 (Serve.Job_queue.depth q);
  Serve.Job_queue.close q;
  Alcotest.(check bool) "closed refuses" true (Serve.Job_queue.push q "d" = Serve.Job_queue.Closed);
  Alcotest.(check (option string)) "drain after close" (Some "a") (Serve.Job_queue.pop q);
  Alcotest.(check (list string)) "batch drains the rest" [ "b"; "r" ]
    (Serve.Job_queue.pop_batch q 10);
  Alcotest.(check (option string)) "closed and drained" None (Serve.Job_queue.pop q)

let test_queue_priorities () =
  let q = Serve.Job_queue.create ~levels:2 ~high_water:10 () in
  ignore (Serve.Job_queue.push q ~prio:1 "bulk1");
  ignore (Serve.Job_queue.push q ~prio:0 "urgent1");
  ignore (Serve.Job_queue.push q ~prio:1 "bulk2");
  ignore (Serve.Job_queue.push q ~prio:0 "urgent2");
  Alcotest.(check (list string)) "urgent first, FIFO within a level"
    [ "urgent1"; "urgent2"; "bulk1"; "bulk2" ]
    (Serve.Job_queue.pop_batch q 10)

let test_queue_flight_events () =
  Obs.Flight.set_enabled true;
  Obs.Flight.clear ();
  let m = Obs.Flight.mark () in
  let q = Serve.Job_queue.create ~high_water:1 () in
  ignore (Serve.Job_queue.push q "a");
  ignore (Serve.Job_queue.push q "b");
  let evs =
    List.filter
      (fun (e : Obs.Flight.event) -> e.Obs.Flight.kind = Obs.Flight.Serve)
      (Obs.Flight.events ~since:m ())
  in
  Alcotest.(check (list string)) "admission decisions recorded"
    [ "enqueue"; "overloaded" ]
    (List.map (fun (e : Obs.Flight.event) -> e.Obs.Flight.detail) evs);
  Obs.Flight.clear ()

(* ---- the service ---- *)

let config ~sites ~epochs =
  {
    Serve.Service.default_config with
    sites;
    epochs;
    seed = 5;
    jobs = 2;
    high_water = 16;
    batch = 4;
  }

let run_service ?config:(cfg = config ~sites:6 ~epochs:1) ~store () =
  Serve.Service.run ~control:(Lazy.force control) ~config:cfg ~store

let test_kill_and_resume_byte_identical () =
  with_store (fun reference ->
      with_store (fun crashed ->
          let cfg = config ~sites:6 ~epochs:2 in
          let s = run_service ~config:cfg ~store:reference () in
          Alcotest.(check int) "both epochs fully durable" 12
            (s.Serve.Service.measured + s.Serve.Service.carried);
          let full = read_file reference in
          (* simulate a SIGKILL: keep a prefix of the store ending inside
             a record, then restart the service on it *)
          let cut = String.length full - 37 in
          Out_channel.with_open_bin crashed (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          let r = run_service ~config:cfg ~store:crashed () in
          Alcotest.(check bool) "restart recovered committed verdicts" true
            (r.Serve.Service.recovered > 0);
          Alcotest.(check bool) "restart dropped the torn record" true
            (r.Serve.Service.torn_dropped > 0);
          Alcotest.(check bool) "resumed store byte-identical to uninterrupted" true
            (read_file crashed = full)))

let test_rerun_is_all_recovered () =
  with_store (fun store ->
      let first = run_service ~store () in
      Alcotest.(check int) "cold run recovers nothing" 0 first.Serve.Service.recovered;
      let again = run_service ~store () in
      Alcotest.(check int) "warm rerun measures nothing" 0 again.Serve.Service.measured;
      Alcotest.(check int) "every verdict recovered from the journal" 6
        again.Serve.Service.recovered;
      Alcotest.(check int) "snapshot present" 1 again.Serve.Service.snapshots)

let test_watchdog_timeout_path () =
  with_store (fun store ->
      (* deadline 0: every measurement overruns, is retried once on the
         timeout budget, then committed as a typed unknown *)
      let cfg =
        { (config ~sites:3 ~epochs:1) with Serve.Service.deadline_s = 0.0; jobs = 1 }
      in
      let s = run_service ~config:cfg ~store () in
      Alcotest.(check int) "budget 1: two deadline hits per site" 6
        s.Serve.Service.timeouts;
      Alcotest.(check int) "every site still committed" 3 s.Serve.Service.measured;
      let j = Engine.Journal.open_ store in
      let sites = Internet.Population.generate ~n:3 ~seed:cfg.Serve.Service.seed () in
      let key =
        Printf.sprintf "e0|%s"
          (Internet.Census.cache_key ~control:(Lazy.force control) ~proto ~region
             (List.hd sites))
      in
      (match Engine.Journal.find j key with
      | None -> Alcotest.fail "timed-out site has no record"
      | Some v ->
        Alcotest.(check bool) "record carries the timeout chain" true
          (contains ~needle:"\"failures\":[\"timeout\",\"timeout\"]" v));
      Engine.Journal.close j)

let test_delta_census_carries_and_remeasures () =
  with_store (fun store ->
      (* floors below any real verdict: nothing decays, epoch 1 is pure
         carry-forward *)
      let stable =
        {
          (config ~sites:5 ~epochs:2) with
          Serve.Service.confidence_floor = -1.0;
          margin_floor = -1.0;
        }
      in
      let s = run_service ~config:stable ~store () in
      Alcotest.(check int) "epoch 0 measured every site" 5 s.Serve.Service.measured;
      Alcotest.(check int) "epoch 1 carried every verdict" 5 s.Serve.Service.carried;
      Alcotest.(check int) "one snapshot per epoch" 2 s.Serve.Service.snapshots);
  with_store (fun store ->
      (* floors above any verdict: everything decays, epoch 1 re-measures *)
      let decaying =
        {
          (config ~sites:5 ~epochs:2) with
          Serve.Service.confidence_floor = 2.0;
          margin_floor = 1e9;
        }
      in
      let s = run_service ~config:decaying ~store () in
      Alcotest.(check int) "both epochs measured every site" 10 s.Serve.Service.measured;
      Alcotest.(check int) "nothing carried" 0 s.Serve.Service.carried;
      let j = Engine.Journal.open_ store in
      (match Engine.Journal.find j "snapshot|e1" with
      | None -> Alcotest.fail "epoch 1 snapshot missing"
      | Some v ->
        Alcotest.(check bool) "snapshot records the population size" true
          (contains ~needle:"\"total_hosts\":5" v));
      Engine.Journal.close j)

(* ---- health surface ---- *)

let with_status f =
  let path = Filename.temp_file "serve_status" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".prom"; path ^ ".tmp" ])
    (fun () -> f path)

let test_status_final_snapshot_deterministic () =
  (* the final snapshot carries only commit-tick content, so two fresh
     runs of the same workload at different jobs counts must leave
     byte-identical status files — the check.sh serve gate *)
  let run_with ~jobs =
    with_store (fun store ->
        with_status (fun status ->
            let cfg =
              { (config ~sites:5 ~epochs:1) with Serve.Service.jobs; status_file = Some status }
            in
            ignore (run_service ~config:cfg ~store ());
            (read_file status, read_file (status ^ ".prom"))))
  in
  let json1, prom1 = run_with ~jobs:1 in
  let json2, prom2 = run_with ~jobs:2 in
  Alcotest.(check string) "final JSON snapshot identical jobs=1 vs jobs=2" json1 json2;
  Alcotest.(check string) "final Prometheus exposition identical" prom1 prom2;
  Alcotest.(check bool) "final snapshot says phase=final" true
    (contains ~needle:"\"phase\":\"final\"" json1);
  Alcotest.(check bool) "jobs_per_s is null in the final snapshot" true
    (contains ~needle:"\"jobs_per_s\":null" json1);
  Alcotest.(check bool) "prometheus marks the daemon drained" true
    (contains ~needle:"nebby_serve_up 0" prom1)

let test_status_read_render_and_version_gate () =
  with_store (fun store ->
      with_status (fun status ->
          let cfg =
            { (config ~sites:4 ~epochs:1) with Serve.Service.status_file = Some status }
          in
          ignore (run_service ~config:cfg ~store ());
          let snap = Serve.Health.read status in
          Alcotest.(check string) "phase" "final" snap.Serve.Health.phase;
          Alcotest.(check int) "no queue lag after drain" 0 snap.Serve.Health.journal_lag;
          Alcotest.(check bool) "queue fully drained" true
            (List.for_all (fun d -> d = 0) snap.Serve.Health.queue_depths);
          Alcotest.(check int) "commits cover sites + snapshot" 5
            snap.Serve.Health.commits;
          Alcotest.(check bool) "bulk-priority waits were observed" true
            (List.exists
               (fun (prio, h) -> prio = 1 && Obs.Histogram.count h > 0)
               snap.Serve.Health.waits);
          let text = Serve.Health.render snap in
          Alcotest.(check bool) "render names the wait histogram" true
            (contains ~needle:"serve.wait_ticks.prio1" text);
          let prom = read_file (status ^ ".prom") in
          Alcotest.(check bool) "prometheus exposes wait quantiles" true
            (contains ~needle:"nebby_serve_wait_ticks{prio=\"1\",quantile=\"0.99\"}" prom);
          Alcotest.(check bool) "prometheus exposes per-prio depth" true
            (contains ~needle:"nebby_serve_queue_depth{prio=\"0\"} 0" prom);
          (* version skew is a typed failure *)
          Out_channel.with_open_bin status (fun oc ->
              Out_channel.output_string oc
                "{\"kind\":\"nebby_serve_status\",\"version\":99}\n");
          match Serve.Health.read status with
          | _ -> Alcotest.fail "expected Version_mismatch"
          | exception Obs.Envelope.Version_mismatch { got; _ } ->
            Alcotest.(check int) "mismatch carries the skewed version" 99 got))

let test_service_backpressure_observable () =
  with_store (fun store ->
      let cfg =
        { (config ~sites:8 ~epochs:1) with Serve.Service.high_water = 2; batch = 1 }
      in
      Obs.Runtime.with_armed (fun () ->
          Obs.Metrics.reset ();
          let s = run_service ~config:cfg ~store () in
          Alcotest.(check bool) "admission hit the high-water mark" true
            (s.Serve.Service.overloads > 0);
          Alcotest.(check int) "overloads surface as a counter"
            s.Serve.Service.overloads
            (Obs.Metrics.counter_value (Obs.Metrics.counter "serve.queue.overloaded"));
          Alcotest.(check int) "commits surface as a counter" 8
            (Obs.Metrics.counter_value (Obs.Metrics.counter "serve.measured"));
          Alcotest.(check bool) "store complete despite backpressure" true
            (s.Serve.Service.measured = 8);
          Obs.Metrics.reset ()))

let test_prometheus_help_type_pairing () =
  (* every exposed metric family must carry both a # HELP and a # TYPE
     line — a silent gap here breaks scrapers that key on HELP *)
  with_store (fun store ->
      with_status (fun status ->
          let cfg =
            {
              (config ~sites:4 ~epochs:1) with
              Serve.Service.status_file = Some status;
              alert_rules = Serve.Alerts.default_rules;
            }
          in
          ignore (run_service ~config:cfg ~store ());
          let prom = read_file (status ^ ".prom") in
          let lines = String.split_on_char '\n' prom in
          let names_after prefix =
            List.filter_map
              (fun l ->
                if String.length l > String.length prefix
                   && String.sub l 0 (String.length prefix) = prefix
                then
                  let rest =
                    String.sub l (String.length prefix)
                      (String.length l - String.length prefix)
                  in
                  Some (List.hd (String.split_on_char ' ' rest))
                else None)
              lines
            |> List.sort_uniq compare
          in
          let helps = names_after "# HELP " and types = names_after "# TYPE " in
          Alcotest.(check (list string)) "HELP and TYPE cover the same families" types
            helps;
          (* every sample belongs to a declared family *)
          let sample_families =
            List.filter_map
              (fun l ->
                if l = "" || l.[0] = '#' then None
                else
                  let base = List.hd (String.split_on_char '{' l) in
                  Some (List.hd (String.split_on_char ' ' base)))
              lines
            |> List.sort_uniq compare
          in
          (* summary samples <fam>_count / <fam>_sum belong to <fam> *)
          let base fam =
            let strip suffix =
              if Filename.check_suffix fam suffix then
                Some (Filename.chop_suffix fam suffix)
              else None
            in
            match (strip "_count", strip "_sum") with
            | Some b, _ when List.mem b helps -> b
            | _, Some b when List.mem b helps -> b
            | _ -> fam
          in
          List.iter
            (fun fam ->
              Alcotest.(check bool)
                (Printf.sprintf "family %s has HELP" fam)
                true
                (List.mem (base fam) helps);
              Alcotest.(check bool)
                (Printf.sprintf "family %s has TYPE" fam)
                true
                (List.mem (base fam) types))
            sample_families;
          (* the satellite regression: the recovery counters are documented *)
          List.iter
            (fun fam ->
              Alcotest.(check bool) (Printf.sprintf "HELP for %s" fam) true
                (List.mem fam helps))
            [
              "nebby_serve_recovered_total";
              "nebby_serve_carried_total";
              "nebby_serve_timeouts_total";
              "nebby_serve_journal_records";
              "nebby_alert";
            ]))

let test_migrating_service_detects_and_alerts () =
  (* end-to-end: a migrating population with per-epoch re-measurement
     produces drift ledger points in the store, and the alert engine
     writes a well-formed JSONL transition log *)
  with_store (fun store ->
      let log = Filename.temp_file "serve_alerts" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
        (fun () ->
          let cfg =
            {
              (config ~sites:8 ~epochs:3) with
              Serve.Service.confidence_floor = 1.1 (* force re-measurement *);
              migration =
                Some { Internet.Population.default_migration with onset = 1; rate = 40.0 };
              alert_rules =
                [ Serve.Alerts.rule "drift-rate" Serve.Alerts.Drift_rate Obs.Gate.Ceiling 0.5 ];
              alert_log = Some log;
            }
          in
          let s = run_service ~config:cfg ~store () in
          Alcotest.(check int) "every epoch re-measured" 24 s.Serve.Service.measured;
          let ledger = Serve.Observatory.ledger_of_store ~store in
          Alcotest.(check int) "one ledger point per epoch" 3
            (List.length ledger.Obs.Drift.points);
          (* alert log is valid JSONL; a fire implies the summary counted it *)
          let transitions =
            List.filter_map
              (fun l ->
                if l = "" then None
                else Some (Serve.Alerts.transition_of_json (Obs.Json.of_string l)))
              (String.split_on_char '\n' (read_file log))
          in
          let fires =
            List.length
              (List.filter (fun t -> t.Serve.Alerts.action = Serve.Alerts.Fire) transitions)
          in
          Alcotest.(check int) "summary counts the fires" fires
            s.Serve.Service.alerts_fired;
          if s.Serve.Service.drift_events > 0 then
            Alcotest.(check bool) "a detected migration fired the drift-rate rule" true
              (fires > 0)))

let suite =
  [
    Alcotest.test_case "journal roundtrip and reopen" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn tail dropped and repaired" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal corrupt line drops suffix" `Quick
      test_journal_corrupt_line_drops_suffix;
    Alcotest.test_case "journal version mismatch fails loudly" `Quick
      test_journal_version_mismatch;
    Alcotest.test_case "journal compaction canonical and idempotent" `Quick
      test_journal_compaction_deterministic;
    Alcotest.test_case "journal bounded cache re-reads from disk" `Quick
      test_journal_bounded_cache;
    Alcotest.test_case "queue backpressure and close semantics" `Quick
      test_queue_backpressure;
    Alcotest.test_case "queue priorities pop urgent first" `Quick test_queue_priorities;
    Alcotest.test_case "queue admission recorded in flight ring" `Quick
      test_queue_flight_events;
    Alcotest.test_case "kill and resume converge byte-identically" `Slow
      test_kill_and_resume_byte_identical;
    Alcotest.test_case "warm rerun recovers everything" `Slow test_rerun_is_all_recovered;
    Alcotest.test_case "watchdog converts overruns into typed timeouts" `Quick
      test_watchdog_timeout_path;
    Alcotest.test_case "delta census carries stable, re-measures decayed" `Slow
      test_delta_census_carries_and_remeasures;
    Alcotest.test_case "service backpressure observable in counters" `Quick
      test_service_backpressure_observable;
    Alcotest.test_case "final status snapshot byte-identical across jobs" `Slow
      test_status_final_snapshot_deterministic;
    Alcotest.test_case "status read/render and schema version gate" `Quick
      test_status_read_render_and_version_gate;
    Alcotest.test_case "prometheus families all carry HELP and TYPE" `Quick
      test_prometheus_help_type_pairing;
    Alcotest.test_case "migrating population detected and alerted end-to-end" `Slow
      test_migrating_service_detects_and_alerts;
  ]
