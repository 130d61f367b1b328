(* The drift observatory: the CUSUM change-point detector's acceptance
   contract (exactly one Migration within 3 epochs of a seeded
   CUBIC→BBR onset; zero events on a stationary population), ledger and
   event JSON byte-stability with schema-version gating, the
   time-varying population's invariants, the journal→ledger builder,
   and the alert engine's fire/resolve dedup. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Ground-truth ledger: class shares read straight off the synthetic
   population's Ohio deployments — no measurement, so the only movement
   is the migration schedule itself. *)
let truth_point ~epoch sites =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (site : Internet.Website.t) ->
      let label =
        Option.value ~default:"cubic"
          (List.assoc_opt Internet.Region.Ohio site.Internet.Website.deployments)
      in
      let cls = Internet.Census_history.class_of_label label in
      Hashtbl.replace tally cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally cls)))
    sites;
  let hosts = List.length sites in
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 hosts) in
  {
    Obs.Drift.epoch;
    hosts;
    shares = Hashtbl.fold (fun c n acc -> (c, pct n) :: acc) tally [];
    unknown_share = 0.0;
    mean_confidence = 1.0;
    mean_margin = 5.0;
    timeouts = 0;
  }

let truth_ledger ?migration ~epochs ~n ~seed () =
  Obs.Drift.make ~subject:"truth"
    (List.init epochs (fun epoch ->
         let sites =
           match migration with
           | None -> Internet.Population.generate ~n ~seed ()
           | Some m ->
             Internet.Population.generate_at ~n ~seed ~migration:m ~epoch ()
         in
         truth_point ~epoch sites))

let migration = Internet.Population.default_migration

(* ---- detector acceptance ---- *)

let test_stationary_zero_events () =
  let l = truth_ledger ~epochs:10 ~n:64 ~seed:7 () in
  Alcotest.(check int) "no drift events on a stationary population" 0
    (List.length (Obs.Drift.detect l))

let test_migration_exactly_one_event () =
  let l = truth_ledger ~migration ~epochs:10 ~n:64 ~seed:7 () in
  match Obs.Drift.detect l with
  | [ Obs.Drift.Migration { from_; to_; epoch; rate_per_epoch } ] ->
    Alcotest.(check string) "donor class" "CUBIC" from_;
    Alcotest.(check string) "recipient class" "BBRv1" to_;
    Alcotest.(check bool)
      (Printf.sprintf "alarm epoch %d within 3 of onset %d" epoch migration.onset)
      true
      (epoch >= migration.onset && epoch <= migration.onset + 3);
    Alcotest.(check bool) "positive rate" true (rate_per_epoch > 0.0)
  | events ->
    Alcotest.failf "expected exactly one Migration, got [%s]"
      (String.concat "; " (List.map Obs.Drift.event_label events))

let test_detector_prefix_stable () =
  (* the serve loop detects on each ledger prefix; prefix alarms must
     agree with the full-ledger pass *)
  let l = truth_ledger ~migration ~epochs:10 ~n:64 ~seed:7 () in
  let full = Obs.Drift.detect l in
  List.iter
    (fun k ->
      let prefix =
        Obs.Drift.make ~subject:l.Obs.Drift.subject
          (List.filteri (fun i _ -> i < k) l.Obs.Drift.points)
      in
      let expected =
        List.filter
          (fun e ->
            match List.filteri (fun i _ -> i < k) l.Obs.Drift.points with
            | [] -> false
            | ps -> Obs.Drift.event_epoch e <= (List.nth ps (k - 1)).Obs.Drift.epoch)
          full
      in
      Alcotest.(check (list string))
        (Printf.sprintf "prefix %d events agree" k)
        (List.map Obs.Drift.event_label expected)
        (List.map Obs.Drift.event_label (Obs.Drift.detect prefix)))
    [ 2; 4; 6; 8; 10 ]

let test_emerged_and_collapsed () =
  (* hand-built series: one class ramps from nothing with no donor
     (Emerged), one drains with no recipient (Collapsed) *)
  let mk epoch shares =
    {
      Obs.Drift.epoch;
      hosts = 100;
      shares;
      unknown_share = 0.0;
      mean_confidence = 1.0;
      mean_margin = 5.0;
      timeouts = 0;
    }
  in
  let emerged =
    Obs.Drift.make ~subject:"emerged"
      (List.init 6 (fun e ->
           mk e [ ("CUBIC", 60.0); ("AkamaiCC", 4.0 *. float_of_int e) ]))
  in
  (match Obs.Drift.detect emerged with
  | [ Obs.Drift.Emerged { class_ = "AkamaiCC"; _ } ] -> ()
  | es ->
    Alcotest.failf "expected one Emerged, got [%s]"
      (String.concat "; " (List.map Obs.Drift.event_label es)));
  let collapsed =
    Obs.Drift.make ~subject:"collapsed"
      (List.init 6 (fun e ->
           mk e [ ("CUBIC", 60.0); ("Vegas", 20.0 -. (4.0 *. float_of_int e)) ]))
  in
  match Obs.Drift.detect collapsed with
  | [ Obs.Drift.Collapsed { class_ = "Vegas"; _ } ] -> ()
  | es ->
    Alcotest.failf "expected one Collapsed, got [%s]"
      (String.concat "; " (List.map Obs.Drift.event_label es))

let test_unclassified_never_alarms () =
  let mk epoch unknown =
    {
      Obs.Drift.epoch;
      hosts = 100;
      shares = [ ("CUBIC", 100.0 -. unknown); ("Unclassified", unknown) ];
      unknown_share = unknown;
      mean_confidence = 1.0;
      mean_margin = 5.0;
      timeouts = 0;
    }
  in
  (* unknown mass ramps hard; CUBIC's mirror loss alarms Collapsed but
     nothing may ever emerge into (or migrate to) Unclassified *)
  let l =
    Obs.Drift.make ~subject:"unknowns"
      (List.init 6 (fun e -> mk e (6.0 *. float_of_int e)))
  in
  List.iter
    (function
      | Obs.Drift.Emerged { class_; _ } | Obs.Drift.Migration { to_ = class_; _ } ->
        Alcotest.(check bool) "never alarms on Unclassified" false
          (class_ = "Unclassified")
      | Obs.Drift.Collapsed _ -> ())
    (Obs.Drift.detect l)

(* ---- ledger serialization ---- *)

let test_ledger_json_round_trip () =
  let l = truth_ledger ~migration ~epochs:5 ~n:32 ~seed:3 () in
  let once = Obs.Json.to_string (Obs.Drift.to_json l) in
  let again =
    Obs.Json.to_string (Obs.Drift.to_json (Obs.Drift.of_json (Obs.Json.of_string once)))
  in
  Alcotest.(check string) "serialize-parse-serialize byte identical" once again;
  List.iter
    (fun e ->
      let j = Obs.Json.to_string (Obs.Drift.event_to_json e) in
      let back =
        Obs.Json.to_string
          (Obs.Drift.event_to_json (Obs.Drift.event_of_json (Obs.Json.of_string j)))
      in
      Alcotest.(check string) "event round-trips" j back)
    (Obs.Drift.detect l)

let test_ledger_version_gate () =
  let l = truth_ledger ~epochs:2 ~n:8 ~seed:1 () in
  let j = Obs.Drift.to_json l in
  let skewed =
    match j with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function "version", _ -> ("version", Obs.Json.Num 99.0) | kv -> kv)
           fields)
    | _ -> Alcotest.fail "ledger json not an object"
  in
  match Obs.Drift.of_json skewed with
  | exception Obs.Envelope.Version_mismatch { expected; got; _ } ->
    Alcotest.(check int) "expected version" Obs.Drift.schema_version expected;
    Alcotest.(check int) "got skewed version" 99 got
  | _ -> Alcotest.fail "version skew must raise"

(* ---- time-varying population ---- *)

let test_generate_at_invariants () =
  let n = 64 and seed = 7 in
  let base = Internet.Population.generate ~n ~seed () in
  let at e = Internet.Population.generate_at ~n ~seed ~migration ~epoch:e () in
  (* before onset: byte-equal to the stationary population *)
  Alcotest.(check bool) "pre-onset epochs equal generate" true
    (at 0 = base && at (migration.onset - 1) = base);
  (* identity is stable: rank/name/cdn/noise never change *)
  List.iter2
    (fun (a : Internet.Website.t) (b : Internet.Website.t) ->
      Alcotest.(check bool) "site identity stable" true
        (a.rank = b.rank && a.name = b.name && a.cdn = b.cdn
        && a.noise_factor = b.noise_factor && a.page_bytes = b.page_bytes))
    base (at 8);
  (* conversion is monotone: the donor count never grows with epoch *)
  let donors sites =
    List.length
      (List.filter
         (fun (s : Internet.Website.t) ->
           List.exists (fun (_, c) -> c = migration.from_cca) s.deployments)
         sites)
  in
  let counts = List.init 10 (fun e -> donors (at e)) in
  List.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "donor count non-increasing at epoch %d" i)
          true
          (c <= List.nth counts (i - 1)))
    counts;
  Alcotest.(check bool) "migration actually converts sites" true
    (donors (at 9) < donors base);
  (* weights_at conserves total mass *)
  let total ws = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 ws in
  Alcotest.(check (float 1e-9)) "weights_at conserves mass"
    (total Internet.Population.base_weights)
    (total (Internet.Population.weights_at migration ~epoch:6))

let test_migration_spec_round_trip () =
  (match Internet.Population.migration_of_spec "cubic:bbr:2:4" with
  | Some m ->
    Alcotest.(check string) "spec round-trips" "cubic:bbr:2:4"
      (Internet.Population.migration_spec m)
  | None -> Alcotest.fail "valid spec rejected");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (Internet.Population.migration_of_spec bad = None))
    [ ""; "cubic:bbr"; "cubic:cubic:2:4"; "cubic:bbr:-1:4"; "cubic:bbr:2:0"; ":bbr:2:4" ]

(* ---- journal -> ledger builder ---- *)

let test_epoch_of_key () =
  Alcotest.(check (option int)) "verdict key" (Some 3)
    (Serve.Observatory.epoch_of_key "e3|1:site|ohio|tcp|fp");
  Alcotest.(check (option int)) "snapshot key skipped" None
    (Serve.Observatory.epoch_of_key "snapshot|e3");
  Alcotest.(check (option int)) "garbage" None (Serve.Observatory.epoch_of_key "zz");
  Alcotest.(check (option int)) "no epoch digits" None
    (Serve.Observatory.epoch_of_key "e|x")

let verdict ?(label = "cubic") ?(confidence = 0.95) ?(failures = []) () =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("label", Obs.Json.Str label);
         ("confidence", Obs.Json.Num confidence);
         ("margin", Obs.Json.Num 3.0);
         ("attempts", Obs.Json.Num 1.0);
         ("failures", Obs.Json.Arr (List.map (fun f -> Obs.Json.Str f) failures));
       ])

let test_point_of_values () =
  let values =
    [
      verdict ();
      verdict ~label:"bbr" ();
      verdict ~label:"unknown" ~confidence:0.0
        ~failures:[ "timeout"; "timeout" ] ();
      verdict ~label:"akamai_cc" ();
    ]
  in
  let p = Serve.Observatory.point_of_values ~epoch:2 values in
  Alcotest.(check int) "hosts" 4 p.Obs.Drift.hosts;
  Alcotest.(check int) "timeouts counted" 1 p.Obs.Drift.timeouts;
  Alcotest.(check (float 1e-9)) "unknown share" 25.0 p.Obs.Drift.unknown_share;
  Alcotest.(check (float 1e-9)) "cubic share" 25.0 (Obs.Drift.share p "CUBIC");
  Alcotest.(check (float 1e-9)) "akamai share" 25.0 (Obs.Drift.share p "AkamaiCC");
  Alcotest.(check (float 1e-9)) "mean confidence" ((0.95 +. 0.95 +. 0.0 +. 0.95) /. 4.0)
    p.Obs.Drift.mean_confidence;
  (* unreadable records fail towards unknown, not towards a crash *)
  let p2 = Serve.Observatory.point_of_values ~epoch:0 [ "{not json" ] in
  Alcotest.(check (float 1e-9)) "garbage counts as unknown" 100.0
    p2.Obs.Drift.unknown_share

let test_ledger_of_store () =
  let path = Filename.temp_file "drift" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let j = Engine.Journal.open_ path in
      Engine.Journal.put j ~key:"e0|1:a|ohio|tcp|fp" ~value:(verdict ());
      Engine.Journal.put j ~key:"e0|2:b|ohio|tcp|fp" ~value:(verdict ~label:"bbr" ());
      Engine.Journal.put j ~key:"e1|1:a|ohio|tcp|fp" ~value:(verdict ~label:"bbr" ());
      Engine.Journal.put j ~key:"snapshot|e0" ~value:"{}";
      Engine.Journal.close j;
      let l = Serve.Observatory.ledger_of_store ~store:path in
      Alcotest.(check int) "two epochs" 2 (List.length l.Obs.Drift.points);
      match l.Obs.Drift.points with
      | [ p0; p1 ] ->
        Alcotest.(check int) "epoch 0 hosts" 2 p0.Obs.Drift.hosts;
        Alcotest.(check (float 1e-9)) "epoch 0 cubic" 50.0 (Obs.Drift.share p0 "CUBIC");
        Alcotest.(check int) "epoch 1 hosts" 1 p1.Obs.Drift.hosts;
        Alcotest.(check (float 1e-9)) "epoch 1 bbr" 100.0 (Obs.Drift.share p1 "BBRv1")
      | _ -> Alcotest.fail "expected two points")

let test_ledger_of_missing_store () =
  let path = Filename.temp_file "drift" ".journal" in
  Sys.remove path;
  (match Serve.Observatory.ledger_of_store ~store:path with
  | exception Sys_error msg ->
    Alcotest.(check bool) "the error names the path" true (contains ~needle:path msg)
  | _ -> Alcotest.fail "a missing store must not read as an empty ledger");
  Alcotest.(check bool) "nothing created at the path" false (Sys.file_exists path)

(* ---- alert engine ---- *)

let signal_fn values s =
  Option.value ~default:0.0 (List.assoc_opt (Serve.Alerts.signal_name s) values)

let test_alert_fire_resolve_dedup () =
  let rules =
    [ Serve.Alerts.rule "unknown-share" Serve.Alerts.Unknown_share Obs.Gate.Ceiling 40.0 ]
  in
  let eng = Serve.Alerts.create rules in
  let eval epoch unknown =
    Serve.Alerts.evaluate eng ~epoch
      ~signal_value:(signal_fn [ ("unknown_share", unknown) ])
  in
  Alcotest.(check int) "quiet epoch: no edge" 0 (List.length (eval 0 10.0));
  (match eval 1 55.0 with
  | [ { Serve.Alerts.action = Serve.Alerts.Fire; rule = "unknown-share"; epoch = 1; _ } ]
    ->
    ()
  | _ -> Alcotest.fail "expected a fire edge");
  Alcotest.(check int) "still breached: deduplicated" 0 (List.length (eval 2 60.0));
  (match eval 3 10.0 with
  | [ { Serve.Alerts.action = Serve.Alerts.Resolve; epoch = 3; _ } ] -> ()
  | _ -> Alcotest.fail "expected a resolve edge");
  Alcotest.(check int) "quiet again: nothing" 0 (List.length (eval 4 10.0));
  Alcotest.(check (list (pair string bool))) "final state quiet"
    [ ("unknown-share", false) ]
    (Serve.Alerts.firing eng)

let test_alert_for_epochs_streak () =
  let rules =
    [ Serve.Alerts.rule ~for_epochs:2 "conf" Serve.Alerts.Mean_confidence Obs.Gate.Floor 0.5 ]
  in
  let eng = Serve.Alerts.create rules in
  let eval epoch c =
    Serve.Alerts.evaluate eng ~epoch
      ~signal_value:(signal_fn [ ("mean_confidence", c) ])
  in
  Alcotest.(check int) "first breach below streak" 0 (List.length (eval 0 0.3));
  (* breach interrupted: streak resets *)
  Alcotest.(check int) "recovery resets streak" 0 (List.length (eval 1 0.9));
  Alcotest.(check int) "breach 1/2" 0 (List.length (eval 2 0.3));
  Alcotest.(check int) "breach 2/2 fires" 1 (List.length (eval 3 0.3))

let test_alert_rules_json_and_gauges () =
  let rules = Serve.Alerts.default_rules in
  let once = Obs.Json.to_string (Serve.Alerts.rules_to_json rules) in
  let again =
    Obs.Json.to_string
      (Serve.Alerts.rules_to_json (Serve.Alerts.rules_of_json (Obs.Json.of_string once)))
  in
  Alcotest.(check string) "rules round-trip byte identical" once again;
  (* version gate *)
  (match
     Serve.Alerts.rules_of_json
       (Obs.Json.Obj
          [
            ("kind", Obs.Json.Str "nebby_alert_rules");
            ("version", Obs.Json.Num 42.0);
            ("rules", Obs.Json.Arr []);
          ])
   with
  | exception Obs.Envelope.Version_mismatch { got = 42; _ } -> ()
  | _ -> Alcotest.fail "rules version skew must raise");
  (* transitions round-trip *)
  let tr =
    {
      Serve.Alerts.epoch = 4;
      rule = "drift-rate";
      action = Serve.Alerts.Fire;
      value = 4.25;
      limit = 2.5;
    }
  in
  let j = Obs.Json.to_string (Serve.Alerts.transition_to_json tr) in
  Alcotest.(check string) "transition round-trips" j
    (Obs.Json.to_string
       (Serve.Alerts.transition_to_json
          (Serve.Alerts.transition_of_json (Obs.Json.of_string j))));
  (* gauges expose every rule with HELP/TYPE *)
  let g = Serve.Alerts.gauges (Serve.Alerts.create rules) in
  Alcotest.(check bool) "gauges carry HELP" true (contains ~needle:"# HELP nebby_alert" g);
  Alcotest.(check bool) "gauges carry TYPE" true (contains ~needle:"# TYPE nebby_alert" g);
  List.iter
    (fun (r : Serve.Alerts.rule) ->
      Alcotest.(check bool)
        (Printf.sprintf "gauge for %s" r.name)
        true
        (contains ~needle:(Printf.sprintf "nebby_alert{rule=\"%s\"} 0" r.name) g))
    rules

(* ---- rendering ---- *)

let test_render_and_dashboard_deterministic () =
  let l = truth_ledger ~migration ~epochs:8 ~n:48 ~seed:5 () in
  let events = Obs.Drift.detect l in
  let text = Obs.Drift.render l events in
  Alcotest.(check string) "text render pure" text (Obs.Drift.render l events);
  Alcotest.(check bool) "render names the events" true (contains ~needle:"migration" text);
  let historical =
    List.map
      (fun (s : Internet.Census_history.snapshot) -> (s.study, s.year, s.shares))
      Internet.Census_history.historical
  in
  let alerts = [ (4, "drift-rate", `Fire, 4.2, 2.5) ] in
  let html = Obs.Render.drift_dashboard ~historical ~alerts ~ledger:l ~events () in
  Alcotest.(check string) "dashboard byte-identical" html
    (Obs.Render.drift_dashboard ~historical ~alerts ~ledger:l ~events ());
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dashboard mentions %s" needle) true
        (contains ~needle html))
    [ "nebby drift observatory"; "CUBIC"; "Gordon [50]"; "drift-rate"; "<svg" ];
  (* empty ledger degrades to a note instead of charts *)
  let empty = Obs.Drift.make ~subject:"empty" [] in
  Alcotest.(check bool) "empty ledger renders a note" true
    (contains ~needle:"empty ledger"
       (Obs.Render.drift_dashboard ~ledger:empty ~events:[] ()))

let suite =
  [
    Alcotest.test_case "stationary population: zero events" `Quick
      test_stationary_zero_events;
    Alcotest.test_case "seeded migration: exactly one Migration within 3 epochs" `Quick
      test_migration_exactly_one_event;
    Alcotest.test_case "detector is prefix-stable" `Quick test_detector_prefix_stable;
    Alcotest.test_case "unpaired trends emerge and collapse" `Quick
      test_emerged_and_collapsed;
    Alcotest.test_case "Unclassified never alarms" `Quick test_unclassified_never_alarms;
    Alcotest.test_case "ledger and event JSON round-trip byte identity" `Quick
      test_ledger_json_round_trip;
    Alcotest.test_case "ledger schema version gate" `Quick test_ledger_version_gate;
    Alcotest.test_case "generate_at: stable identity, monotone conversion" `Quick
      test_generate_at_invariants;
    Alcotest.test_case "migration spec parse/print round-trip" `Quick
      test_migration_spec_round_trip;
    Alcotest.test_case "observatory epoch key parsing" `Quick test_epoch_of_key;
    Alcotest.test_case "observatory point statistics" `Quick test_point_of_values;
    Alcotest.test_case "observatory ledger from a journal store" `Quick
      test_ledger_of_store;
    Alcotest.test_case "observatory refuses a missing store" `Quick
      test_ledger_of_missing_store;
    Alcotest.test_case "alerts fire/resolve edges deduplicated" `Quick
      test_alert_fire_resolve_dedup;
    Alcotest.test_case "alerts for_epochs breach streak" `Quick
      test_alert_for_epochs_streak;
    Alcotest.test_case "alert rules/transitions JSON + gauges" `Quick
      test_alert_rules_json_and_gauges;
    Alcotest.test_case "drift render + dashboard deterministic" `Quick
      test_render_and_dashboard_deterministic;
  ]
