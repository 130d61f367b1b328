(* The schema envelope, reader by reader: every versioned format the CLI
   reads must reject a future version, a non-integer version, a missing
   version and a header of another kind — the same way, through
   Obs.Envelope.check. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_temp text f =
  let path = Filename.temp_file "envelope" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let json text = Obs.Json.of_string text

let journal_text () =
  let path = Filename.temp_file "envelope" ".journal" in
  Sys.remove path;
  Engine.Journal.close (Engine.Journal.open_ path);
  let text = read_file path in
  Sys.remove path;
  text

let seed_run =
  {
    Obs.Campaign.seed = 1;
    metrics = [ ("accuracy", 1.0) ];
    outcomes = [ { Obs.Campaign.subject = "cubic"; expected = "cubic"; got = "cubic" } ];
  }

let store_text () =
  let path = Filename.temp_file "envelope" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Obs.Campaign.write_store oc ~experiment:"accuracy" [ seed_run ]);
      read_file path)

let fixture_text () =
  let dir =
    match List.find_opt Sys.file_exists [ "adversarial"; "test/adversarial" ] with
    | Some d -> d
    | None -> Alcotest.fail "no committed adversarial fixtures"
  in
  let file =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare |> List.hd
  in
  read_file (Filename.concat dir file)

let report =
  Obs.Provenance.make ~subject:"cubic" ~label:"cubic" ~confidence:1.0 ~margin:2.0
    ~features:[] ~stages:[] ~candidates:[]

let snapshot =
  {
    Serve.Health.version = Serve.Health.schema_version;
    phase = "final";
    epoch = 0;
    queue_depths = [ 0 ];
    high_water = 8;
    overloads = 0;
    measured = 1;
    recovered = 0;
    carried = 0;
    timeouts = 0;
    commits = 1;
    journal_records = 1;
    journal_lag = 0;
    jobs_per_s = None;
    waits = [];
  }

(* kind, a well-formed document (header on the first line), its reader *)
let readers =
  [
    ( "nebby_journal",
      journal_text,
      fun text ->
        with_temp text (fun path ->
            Engine.Journal.close (Engine.Journal.open_ ~on_warning:ignore path)) );
    ( "campaign",
      store_text,
      fun text -> with_temp text (fun p -> ignore (Obs.Campaign.read_store p)) );
    ( "campaign_seed",
      (fun () -> Obs.Json.to_string (Obs.Campaign.seed_run_to_json seed_run)),
      fun text -> ignore (Obs.Campaign.seed_run_of_json (json text)) );
    ( "campaign_summary",
      (fun () ->
        Obs.Json.to_string
          (Obs.Campaign.summary_to_json
             (Obs.Campaign.aggregate ~experiment:"x" [ seed_run ]))),
      fun text -> ignore (Obs.Campaign.summary_of_json (json text)) );
    ( "nebby_drift_ledger",
      (fun () ->
        Obs.Json.to_string (Obs.Drift.to_json (Obs.Drift.make ~subject:"s" []))),
      fun text -> ignore (Obs.Drift.of_json (json text)) );
    ( "flight_dump",
      (fun () ->
        Obs.Flight.dump_to_string
          (Obs.Flight.make_dump ~subject:"cubic" ~trigger:"test" ~attempt:1
             ~window_s:1.0 [])),
      fun text -> ignore (Obs.Flight.dump_of_string text) );
    ( "pool_trace",
      (fun () ->
        Obs.Pooltrace.to_string { Obs.Pooltrace.jobs = 0; workers = 0; tasks = [] }),
      fun text -> ignore (Obs.Pooltrace.of_string text) );
    ( "provenance",
      (fun () -> Obs.Json.to_string (Obs.Provenance.to_json report)),
      fun text -> with_temp text (fun p -> ignore (Obs.Provenance.read_jsonl p)) );
    ( "nebby_adversarial",
      fixture_text,
      fun text -> ignore (Search.Fixture.of_string text) );
    ( "nebby_alert_rules",
      (fun () ->
        Obs.Json.to_string (Serve.Alerts.rules_to_json Serve.Alerts.default_rules)),
      fun text -> with_temp text (fun p -> ignore (Serve.Alerts.load_rules p)) );
    ( "nebby_alert",
      (fun () ->
        Obs.Json.to_string
          (Serve.Alerts.transition_to_json
             {
               Serve.Alerts.epoch = 1;
               rule = "r";
               action = Serve.Alerts.Fire;
               value = 1.0;
               limit = 0.5;
             })),
      fun text -> ignore (Serve.Alerts.transition_of_json (json text)) );
    ( "nebby_serve_status",
      (fun () -> Obs.Json.to_string (Serve.Health.to_json snapshot)),
      fun text -> with_temp text (fun p -> ignore (Serve.Health.read p)) );
  ]

(* rewrite the header line's fields, keep every later line *)
let with_header f text =
  let header, rest =
    match String.index_opt text '\n' with
    | Some i -> (String.sub text 0 i, String.sub text i (String.length text - i))
    | None -> (text, "")
  in
  match json header with
  | Obs.Json.Obj fields -> Obs.Json.to_string (Obs.Json.Obj (f fields)) ^ rest
  | _ -> Alcotest.fail "header is not a JSON object"

let set_version v =
  with_header (List.map (fun (k, x) -> if k = "version" then (k, v) else (k, x)))

let expect_parse_error ~what ~needles read text =
  match read text with
  | () -> Alcotest.failf "%s was accepted" what
  | exception Obs.Json.Parse_error msg ->
    List.iter
      (fun needle ->
        if not (contains ~needle msg) then
          Alcotest.failf "%s: message %S does not name %S" what msg needle)
      needles

let test_version_skew () =
  List.iter
    (fun (kind, sample, read) ->
      let text = sample () in
      read text;
      (match read (set_version (Obs.Json.Num 99.0) text) with
      | () -> Alcotest.failf "%s: v99 was accepted" kind
      | exception Obs.Envelope.Version_mismatch m ->
        Alcotest.(check string) (kind ^ ": mismatch names the kind") kind m.kind;
        Alcotest.(check int) (kind ^ ": expected version") 1 m.expected;
        Alcotest.(check int) (kind ^ ": got version") 99 m.got);
      expect_parse_error ~what:(kind ^ " v1.5") ~needles:[ kind; "1.5" ] read
        (set_version (Obs.Json.Num 1.5) text);
      expect_parse_error ~what:(kind ^ " without a version") ~needles:[ kind ] read
        (with_header (List.filter (fun (k, _) -> k <> "version")) text))
    readers

let test_wrong_kind () =
  let header_of text = List.hd (String.split_on_char '\n' text) in
  let pool_header =
    header_of (Obs.Pooltrace.to_string { Obs.Pooltrace.jobs = 0; workers = 0; tasks = [] })
  in
  let journal_header = header_of (journal_text ()) in
  List.iter
    (fun (kind, sample, read) ->
      let foreign, header =
        if kind = "pool_trace" then ("nebby_journal", journal_header)
        else ("pool_trace", pool_header)
      in
      let text = sample () in
      let swapped =
        match String.index_opt text '\n' with
        | Some i -> header ^ String.sub text i (String.length text - i)
        | None -> header
      in
      expect_parse_error ~what:(kind ^ " reading a " ^ foreign ^ " header")
        ~needles:[ kind; foreign ] read swapped)
    readers

let suite =
  [
    Alcotest.test_case "every reader rejects v99, v1.5 and a missing version" `Quick
      test_version_skew;
    Alcotest.test_case "every reader names both kinds on a foreign header" `Quick
      test_wrong_kind;
  ]
