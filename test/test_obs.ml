(* Tests for the lib/obs telemetry subsystem: metrics correctness, span
   trees, the silent no-sink fast path, JSONL round-trips, and the event
   taxonomy a full measurement emits. *)

let small_control = lazy (Controls.get ~runs:4 ~quic_runs:2 ~seed:7)

(* ---- metrics ---- *)

let test_counter_updates () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "t.counter" in
  for _ = 1 to 10_000 do
    Obs.Metrics.incr c
  done;
  Obs.Metrics.add c 500;
  Alcotest.(check int) "10500 after 10000 incrs + add 500" 10_500 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "same handle via registry" 10_500
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.counter"))

let test_gauge () =
  Obs.Metrics.reset ();
  let g = Obs.Metrics.gauge "t.gauge" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "last write wins" 2.5 (Obs.Metrics.gauge_value g)

let check_percentile h q expected =
  let v = Obs.Metrics.percentile h q in
  let rel = Float.abs (v -. expected) /. Float.max 1.0 expected in
  Alcotest.(check bool)
    (Printf.sprintf "p%.0f = %.3f within 5%% of %.3f" (q *. 100.0) v expected)
    true (rel < 0.05)

let test_histogram_uniform () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "t.uniform" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1.0)) "sum" 500_500.0 (Obs.Metrics.histogram_sum h);
  check_percentile h 0.50 500.0;
  check_percentile h 0.90 900.0;
  check_percentile h 0.99 990.0

let test_histogram_constant () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "t.constant" in
  for _ = 1 to 50 do
    Obs.Metrics.observe h 5.0
  done;
  check_percentile h 0.50 5.0;
  check_percentile h 0.99 5.0

let test_histogram_bimodal () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "t.bimodal" in
  (* 90 small values and 10 large ones: p50 must sit in the low mode,
     p99 in the high mode *)
  for _ = 1 to 90 do
    Obs.Metrics.observe h 0.001
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe h 10.0
  done;
  check_percentile h 0.50 0.001;
  check_percentile h 0.99 10.0

let test_histogram_underflow () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "t.under" in
  Obs.Metrics.observe h (-1.0);
  Obs.Metrics.observe h 0.0;
  Obs.Metrics.observe h 4.0;
  Alcotest.(check int) "count includes non-positive" 3 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 0.3)) "p99 in the 4.0 cell" 4.0 (Obs.Metrics.percentile h 0.99)

(* ---- spans ---- *)

let test_span_tree () =
  Obs.Metrics.reset ();
  let completed = ref [] in
  let handle = Obs.Span.on_complete (fun c -> completed := c :: !completed) in
  let result =
    Obs.Span.with_ ~name:"root" (fun () ->
        Obs.Span.with_ ~name:"child1" (fun () -> ());
        Obs.Span.with_ ~name:"child2" (fun () ->
            Obs.Span.with_ ~name:"grand" (fun () -> 17)))
  in
  Obs.Span.off handle;
  Alcotest.(check int) "with_ is transparent" 17 result;
  let by_name name =
    match List.find_opt (fun c -> c.Obs.Span.name = name) !completed with
    | Some c -> c
    | None -> Alcotest.fail ("span not recorded: " ^ name)
  in
  let root = by_name "root" and c1 = by_name "child1" in
  let c2 = by_name "child2" and grand = by_name "grand" in
  Alcotest.(check bool) "root has no parent" true (root.Obs.Span.parent_id = None);
  Alcotest.(check int) "root depth" 0 root.Obs.Span.depth;
  Alcotest.(check bool) "child1 under root" true (c1.Obs.Span.parent_id = Some root.Obs.Span.id);
  Alcotest.(check bool) "child2 under root" true (c2.Obs.Span.parent_id = Some root.Obs.Span.id);
  Alcotest.(check bool) "grand under child2" true
    (grand.Obs.Span.parent_id = Some c2.Obs.Span.id);
  Alcotest.(check int) "grand depth" 2 grand.Obs.Span.depth;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Obs.Span.name ^ " stop after start")
        true
        (c.Obs.Span.wall_stop >= c.Obs.Span.wall_start))
    !completed;
  (* every span also feeds its duration histogram *)
  match Obs.Metrics.find_histogram "span.root" with
  | Some h -> Alcotest.(check int) "span.root observed once" 1 (Obs.Metrics.histogram_count h)
  | None -> Alcotest.fail "span.root histogram missing"

let test_span_exception () =
  Obs.Metrics.reset ();
  let completed = ref [] in
  let handle = Obs.Span.on_complete (fun c -> completed := c :: !completed) in
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ());
  (* the stack must be clean: a sibling span opened afterwards is a root *)
  Obs.Span.with_ ~name:"after" (fun () -> ());
  Obs.Span.off handle;
  let find name = List.find (fun c -> c.Obs.Span.name = name) !completed in
  Alcotest.(check bool) "raised flagged" true (find "boom").Obs.Span.raised;
  Alcotest.(check bool) "sibling is a root" true ((find "after").Obs.Span.parent_id = None)

(* ---- no-sink fast path ---- *)

let test_no_sink_emits_nothing () =
  Obs.Metrics.reset ();
  Alcotest.(check bool) "no subscriber" false (Obs.Events.active ());
  Alcotest.(check bool) "not armed" false (Obs.Runtime.armed ());
  let r = Obs.Span.with_ ~name:"silent" (fun () -> 42) in
  Alcotest.(check int) "span body still runs" 42 r;
  ignore (Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:5 "cubic");
  Alcotest.(check int) "registry untouched by an uninstrumented run" 0
    (List.length (Obs.Metrics.snapshot ()))

let test_armed_run_records () =
  Obs.Metrics.reset ();
  Obs.Runtime.with_armed (fun () ->
      let r = Nebby.Testbed.run_cca ~profile:Nebby.Profile.delay_50ms ~seed:5 "cubic" in
      ignore (Nebby.Measurement.prepare_result ~profile:Nebby.Profile.delay_50ms r));
  Alcotest.(check bool) "disarmed again" false (Obs.Runtime.armed ());
  let counter_value name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Alcotest.(check bool) "sim events counted" true (counter_value "netsim.sim.events" > 0);
  Alcotest.(check bool) "packets counted" true (counter_value "netsim.link.enqueued" > 0);
  (match Obs.Metrics.find_histogram "span.simulate" with
  | Some h ->
    Alcotest.(check int) "one simulate span" 1 (Obs.Metrics.histogram_count h);
    Alcotest.(check bool) "positive duration" true (Obs.Metrics.histogram_sum h > 0.0)
  | None -> Alcotest.fail "span.simulate histogram missing");
  match Obs.Metrics.find_histogram "span.virt.simulate" with
  | Some h ->
    (* the simulated transfer runs to the 60 s time limit *)
    Alcotest.(check bool) "virtual duration ~60 s" true
      (Float.abs (Obs.Metrics.histogram_sum h -. 60.0) < 2.0)
  | None -> Alcotest.fail "span.virt.simulate histogram missing"

(* ---- JSONL round trip ---- *)

let test_jsonl_roundtrip () =
  Obs.Metrics.reset ();
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Obs.Telemetry.record ~jsonl:path (fun () ->
      Obs.Events.emit (Obs.Events.Attempt_started { attempt = 1 });
      Obs.Events.emit
        (Obs.Events.Classifier_vote { plugin = "loss_gnb"; label = "cubic"; confidence = 0.9 });
      Obs.Span.with_ ~name:"stage" (fun () -> ());
      let h = Obs.Metrics.histogram "t.roundtrip" in
      for i = 1 to 100 do
        Obs.Metrics.observe h (float_of_int i)
      done);
  let s = Obs.Telemetry.read_summary path in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 s.Obs.Telemetry.malformed;
  Alcotest.(check (option int)) "one attempt event" (Some 1)
    (List.assoc_opt "attempt_started" s.Obs.Telemetry.events);
  Alcotest.(check (option int)) "one vote event" (Some 1)
    (List.assoc_opt "classifier_vote" s.Obs.Telemetry.events);
  Alcotest.(check bool) "stage span listed" true
    (List.exists (fun (n, c, _) -> n = "stage" && c = 1) s.Obs.Telemetry.spans);
  match
    List.find_opt
      (function Obs.Metrics.Histogram_snap { name; _ } -> name = "t.roundtrip" | _ -> false)
      s.Obs.Telemetry.metrics
  with
  | Some (Obs.Metrics.Histogram_snap { count; cells; _ }) ->
    Alcotest.(check int) "histogram count survives" 100 count;
    let p50 = Obs.Metrics.percentile_of_cells cells 0.50 in
    Alcotest.(check bool) "p50 reconstructable offline" true
      (Float.abs (p50 -. 50.0) /. 50.0 < 0.05)
  | _ -> Alcotest.fail "t.roundtrip histogram not found in summary"

let test_json_parser () =
  let j = Obs.Json.of_string {|{"kind":"x","n":1.5,"s":"a\"b","l":[1,2,null,true]}|} in
  Alcotest.(check (option string)) "string member" (Some "a\"b")
    (Option.bind (Obs.Json.member "s" j) Obs.Json.to_str);
  Alcotest.(check (option (float 1e-9))) "number member" (Some 1.5)
    (Option.bind (Obs.Json.member "n" j) Obs.Json.to_float);
  (match Option.bind (Obs.Json.member "l" j) Obs.Json.to_list with
  | Some l -> Alcotest.(check int) "list length" 4 (List.length l)
  | None -> Alcotest.fail "list member missing");
  Alcotest.check_raises "trailing garbage rejected"
    (Obs.Json.Parse_error "trailing garbage at offset 3") (fun () ->
      ignore (Obs.Json.of_string "{} x"))

(* ---- string escaping: control chars, non-ASCII, \u escapes ---- *)

let test_json_string_escaping () =
  (* every single-byte string must round trip byte-for-byte, and the
     encoded form must never contain a raw control character *)
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    let encoded = Obs.Json.to_string (Obs.Json.Str s) in
    String.iter
      (fun c ->
        if Char.code c < 0x20 then
          Alcotest.fail (Printf.sprintf "byte 0x%02x encoded with a raw control char" b))
      encoded;
    match Obs.Json.to_str (Obs.Json.of_string encoded) with
    | Some s' -> Alcotest.(check string) (Printf.sprintf "byte 0x%02x round trips" b) s s'
    | None -> Alcotest.fail (Printf.sprintf "byte 0x%02x did not decode to a string" b)
  done;
  (* multi-byte UTF-8 passes through raw and untouched *)
  let s = "caf\xc3\xa9 \xe2\x96\x88 \xf0\x9f\x94\xa5" in
  Alcotest.(check (option string)) "utf-8 passthrough" (Some s)
    (Obs.Json.to_str (Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Str s))))

let test_json_unicode_escapes () =
  let decode s = Obs.Json.to_str (Obs.Json.of_string s) in
  Alcotest.(check (option string)) "ascii escape" (Some "A") (decode {|"\u0041"|});
  Alcotest.(check (option string)) "2-byte escape" (Some "\xc3\xa9") (decode {|"\u00E9"|});
  Alcotest.(check (option string)) "3-byte escape" (Some "\xe2\x82\xac")
    (decode {|"\u20AC"|});
  Alcotest.(check (option string)) "surrogate pair -> 4-byte scalar"
    (Some "\xf0\x9f\x98\x80")
    (decode {|"\uD83D\uDE00"|});
  Alcotest.(check (option string)) "unpaired high surrogate -> U+FFFD"
    (Some "\xef\xbf\xbdx")
    (decode {|"\uD83Dx"|});
  Alcotest.(check (option string)) "lone low surrogate -> U+FFFD" (Some "\xef\xbf\xbd")
    (decode {|"\uDC00"|});
  (* escaped control characters decode back to the raw byte *)
  Alcotest.(check (option string)) "escaped NUL" (Some "\x00") (decode {|"\u0000"|});
  Alcotest.(check bool) "malformed hex rejected" true
    (match decode {|"\u00zz"|} with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false)

(* ---- span path, gc accounting, and the Fun.protect guard ---- *)

let test_span_path_and_alloc () =
  let completed = ref [] in
  let handle = Obs.Span.on_complete (fun c -> completed := c :: !completed) in
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner" (fun () ->
          ignore (Sys.opaque_identity (Array.make 100_000 0.0))));
  Obs.Span.off handle;
  let find name = List.find (fun c -> c.Obs.Span.name = name) !completed in
  Alcotest.(check (list string)) "nested path is root-first" [ "outer"; "inner" ]
    (find "inner").Obs.Span.path;
  Alcotest.(check (list string)) "root path is just the root" [ "outer" ]
    (find "outer").Obs.Span.path;
  Alcotest.(check bool) "allocation attributed to the allocating span" true
    ((find "inner").Obs.Span.alloc_words >= 100_000.0);
  Alcotest.(check bool) "allocation included in the enclosing span" true
    ((find "outer").Obs.Span.alloc_words >= (find "inner").Obs.Span.alloc_words)

let test_span_unbalanced_exit () =
  (* the Fun.protect guard: an exception mid-body still pops the stack,
     reports the span (raised = true), and leaves the tree coherent *)
  let completed = ref [] in
  let handle = Obs.Span.on_complete (fun c -> completed := c :: !completed) in
  (try
     Obs.Span.with_ ~name:"guard_outer" (fun () ->
         Obs.Span.with_ ~name:"guard_inner" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  Obs.Span.with_ ~name:"guard_after" (fun () -> ());
  Obs.Span.off handle;
  let find name = List.find (fun c -> c.Obs.Span.name = name) !completed in
  Alcotest.(check bool) "inner flagged raised" true (find "guard_inner").Obs.Span.raised;
  Alcotest.(check bool) "outer flagged raised" true (find "guard_outer").Obs.Span.raised;
  Alcotest.(check (list string)) "stack clean: next span is a root again"
    [ "guard_after" ]
    (find "guard_after").Obs.Span.path

(* ---- drain/absorb edge cases ---- *)

let test_drain_empty_registry () =
  Obs.Metrics.reset ();
  Alcotest.(check int) "empty registry drains to nothing" 0
    (List.length (Obs.Metrics.drain ()));
  Obs.Metrics.absorb [];
  Alcotest.(check int) "absorbing nothing is a no-op" 0
    (List.length (Obs.Metrics.snapshot ()))

let test_drain_histogram_only () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "t.histonly" in
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let snaps = Obs.Metrics.drain () in
  Alcotest.(check int) "histogram-only registry drains one snap" 1 (List.length snaps);
  Alcotest.(check int) "drain resets the registry" 0 (List.length (Obs.Metrics.snapshot ()));
  (* absorbing the same buffer twice must merge cell-by-cell *)
  Obs.Metrics.absorb snaps;
  Obs.Metrics.absorb snaps;
  match Obs.Metrics.find_histogram "t.histonly" with
  | Some h' ->
    Alcotest.(check int) "counts merged" 200 (Obs.Metrics.histogram_count h');
    Alcotest.(check (float 1.0)) "sums merged" 10_100.0 (Obs.Metrics.histogram_sum h')
  | None -> Alcotest.fail "histogram missing after absorb"

(* ---- the full measurement event taxonomy ---- *)

let test_measure_event_kinds () =
  let control = Lazy.force small_control in
  let kinds = Hashtbl.create 16 in
  let telemetry ev = Hashtbl.replace kinds (Obs.Events.kind ev) () in
  let report =
    Nebby.Measurement.measure ~control ~telemetry ~proto:Netsim.Packet.Tcp
      ~noise:Netsim.Path.mild ~seed:42 ~make_cca:(Cca.Registry.create "cubic") ()
  in
  Alcotest.(check bool) "classification produced a label" true
    (String.length report.Nebby.Measurement.label > 0);
  Alcotest.(check bool) "subscription removed afterwards" false (Obs.Events.active ());
  (* golden event-kind set: at least one event from every pipeline stage
     (netsim, transport, BiF pipeline, classifier, measurement driver) *)
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("kind emitted: " ^ kind) true (Hashtbl.mem kinds kind))
    [
      "sim_run_complete";
      "packet_enqueued";
      "packet_dropped";
      "cwnd_update";
      "retransmit";
      "backoff_detected";
      "segment_produced";
      "classifier_vote";
      "attempt_started";
      "measurement_done";
    ]

let suite =
  [
    Alcotest.test_case "counter sequential updates" `Quick test_counter_updates;
    Alcotest.test_case "gauge last-write-wins" `Quick test_gauge;
    Alcotest.test_case "histogram percentiles (uniform)" `Quick test_histogram_uniform;
    Alcotest.test_case "histogram percentiles (constant)" `Quick test_histogram_constant;
    Alcotest.test_case "histogram percentiles (bimodal)" `Quick test_histogram_bimodal;
    Alcotest.test_case "histogram underflow cell" `Quick test_histogram_underflow;
    Alcotest.test_case "span nesting forms a tree" `Quick test_span_tree;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "no sink: fast path emits nothing" `Quick test_no_sink_emits_nothing;
    Alcotest.test_case "armed run records metrics" `Quick test_armed_run_records;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json escaping: every byte round trips" `Quick
      test_json_string_escaping;
    Alcotest.test_case "json unicode escapes and surrogates" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "span path and gc attribution" `Quick test_span_path_and_alloc;
    Alcotest.test_case "span guard survives unbalanced exits" `Quick
      test_span_unbalanced_exit;
    Alcotest.test_case "drain/absorb: empty registry" `Quick test_drain_empty_registry;
    Alcotest.test_case "drain/absorb: histogram-only registry" `Quick
      test_drain_histogram_only;
    Alcotest.test_case "measure emits every stage's events" `Quick test_measure_event_kinds;
  ]
