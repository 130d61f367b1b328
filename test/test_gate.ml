(* Obs.Gate: the one threshold evaluator behind campaign pass gates, serve
   alert rules and the bench ledger's regression gates. *)

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Obs.Gate.status_label s))
    ( = )

let floor ?absent bound = Obs.Gate.make ?absent ~name:"f" "x" Obs.Gate.Floor bound
let ceiling ?absent bound = Obs.Gate.make ?absent ~name:"c" "x" Obs.Gate.Ceiling bound
let judged what want g v = Alcotest.check status what want (Obs.Gate.check g v)

let test_check_at_the_bound () =
  judged "floor: equal passes" Obs.Gate.Pass (floor 0.7) (Some 0.7);
  judged "floor: below fails" Obs.Gate.Fail (floor 0.7) (Some (Float.pred 0.7));
  judged "floor: above passes" Obs.Gate.Pass (floor 0.7) (Some 0.8);
  judged "ceiling: equal passes" Obs.Gate.Pass (ceiling 0.05) (Some 0.05);
  judged "ceiling: above fails" Obs.Gate.Fail (ceiling 0.05) (Some (Float.succ 0.05));
  judged "ceiling: below passes" Obs.Gate.Pass (ceiling 0.05) (Some (-1.0))

let test_non_finite_fails () =
  List.iter
    (fun (label, v) ->
      judged ("floor: " ^ label) Obs.Gate.Fail (floor 0.0) (Some v);
      judged ("ceiling: " ^ label) Obs.Gate.Fail (ceiling 0.0) (Some v))
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let test_absent_policy () =
  judged "skip by default" Obs.Gate.Skip (floor 1.0) None;
  judged "absent Skip" Obs.Gate.Skip (ceiling ~absent:Obs.Gate.Skip 1.0) None;
  judged "absent Fail" Obs.Gate.Fail (ceiling ~absent:Obs.Gate.Fail 1.0) None;
  let results =
    Obs.Gate.evaluate [ floor 1.0; ceiling ~absent:Obs.Gate.Fail 1.0 ] (fun _ -> None)
  in
  Alcotest.(check (list status))
    "evaluate keeps list order" [ Obs.Gate.Skip; Obs.Gate.Fail ]
    (List.map (fun (r : Obs.Gate.result) -> r.status) results);
  Alcotest.(check bool) "a Fail fails the list" false (Obs.Gate.passed results);
  Alcotest.(check bool) "Skips alone pass" true (Obs.Gate.passed [ List.hd results ])

let test_streak () =
  let g = Obs.Gate.make ~streak:3 ~name:"s" "x" Obs.Gate.Ceiling 1.0 in
  let w = Obs.Gate.watch [ g ] in
  let step v =
    List.map
      (fun (edge, (r : Obs.Gate.result)) ->
        ((match edge with Obs.Gate.Fire -> "fire" | Obs.Gate.Resolve -> "resolve"), r.value))
      (Obs.Gate.observe w (fun _ -> Some v))
  in
  let edges = Alcotest.(list (pair string (option (float 0.0)))) in
  Alcotest.check edges "breach 1/3" [] (step 2.0);
  Alcotest.check edges "breach 2/3" [] (step 2.0);
  Alcotest.check edges "a clear resets the streak" [] (step 0.5);
  Alcotest.check edges "breach 1/3 again" [] (step 2.0);
  Alcotest.check edges "breach 2/3 again" [] (step 2.0);
  Alcotest.check edges "breach 3/3 fires" [ ("fire", Some 3.0) ] (step 3.0);
  Alcotest.check edges "a persisting breach is quiet" [] (step 4.0);
  Alcotest.(check (list (pair string bool))) "firing" [ ("s", true) ] (Obs.Gate.firing w);
  Alcotest.check edges "the first clear resolves" [ ("resolve", Some 1.0) ] (step 1.0);
  Alcotest.check edges "quiet stays quiet" [] (step 0.0);
  Alcotest.(check (list (pair string bool))) "quiet" [ ("s", false) ] (Obs.Gate.firing w);
  let long = Obs.Gate.watch [ { g with streak = Obs.Gate.max_streak } ] in
  for _ = 1 to 10 do
    Alcotest.(check int) "a long streak does not fire early" 0
      (List.length (Obs.Gate.observe long (fun _ -> Some 2.0)))
  done

let row (g : Obs.Gate.t) =
  Printf.sprintf "%s %s %s %g x%d%s" g.name g.signal (Obs.Gate.op_label g.op) g.bound
    g.streak
    (if g.absent = Obs.Gate.Fail then " absent-fails" else "")

let test_default_gates_table () =
  let bench =
    [
      "throughput-floor mean(census_sites_per_s) floor 1 x1";
      "flight-overhead mean(census_flight_overhead_frac) ceiling 0.05 x1";
      "provenance-overhead mean(census_provenance_overhead_frac) ceiling 0.5 x1";
    ]
  in
  let gates e = List.map row (Internet.Campaign_runner.default_gates e) in
  let rows = Alcotest.(list string) in
  Alcotest.check rows "accuracy campaign"
    ([
       "accuracy-floor mean(accuracy) floor 0.7 x1";
       "loss-family-floor mean(accuracy.family.loss) floor 0.6 x1";
       "rate-family-floor mean(accuracy.family.rate) floor 0.5 x1";
       "delay-family-floor mean(accuracy.family.delay) floor 0.4 x1";
       "accuracy-ci-width ci_width(accuracy) ceiling 0.25 x1";
     ]
    @ bench)
    (gates Internet.Campaign_runner.Accuracy);
  Alcotest.check rows "census campaign"
    ([
       "accuracy-floor mean(accuracy) floor 0.5 x1";
       "accuracy-ci-width ci_width(accuracy) ceiling 0.25 x1";
     ]
    @ bench)
    (gates Internet.Campaign_runner.Census);
  Alcotest.check rows "chaos campaign"
    ([
       "baseline-accuracy-floor mean(accuracy) floor 0.6 x1";
       "accuracy-ci-width ci_width(accuracy) ceiling 0.3 x1";
     ]
    @ bench)
    (gates Internet.Campaign_runner.Chaos);
  Alcotest.check rows "serve alert rules"
    [
      "unknown-share unknown_share ceiling 45 x1";
      "mean-confidence mean_confidence floor 0.5 x1";
      "timeouts timeouts ceiling 0 x1";
      "drift-rate drift_rate ceiling 2.5 x1";
      "journal-lag journal_lag ceiling 512 x1";
      "overload-share overload_share ceiling 50 x1";
    ]
    (List.map row Serve.Alerts.default_rules)

let test_describe_and_call () =
  Alcotest.(check string) "clause" "mean(accuracy) >= 0.7"
    (Obs.Gate.describe (Obs.Gate.make ~name:"a" "mean(accuracy)" Obs.Gate.Floor 0.7));
  let call = Alcotest.(option (pair string string)) in
  Alcotest.check call "fn(arg)" (Some ("ratio", "journal_replay_s"))
    (Obs.Gate.call "ratio(journal_replay_s)");
  Alcotest.check call "bare signal" None (Obs.Gate.call "timeouts");
  Alcotest.check call "empty argument" None (Obs.Gate.call "f()")

(* the alert-rule codec: for_epochs must be an integer in 1 .. max_streak *)
let rule_doc for_epochs =
  Printf.sprintf
    {|{"kind":"nebby_alert_rules","version":1,"rules":[
       {"name":"never","signal":"unknown_share","ceiling":-1,"for_epochs":%s}]}|}
    for_epochs

let test_rule_streak_codec () =
  List.iter
    (fun bad ->
      match Serve.Alerts.rules_of_json (Obs.Json.of_string (rule_doc bad)) with
      | exception Obs.Json.Parse_error msg ->
        Alcotest.(check bool) ("error names the rule: " ^ bad) true
          (String.length msg >= 5 && String.sub msg (String.length msg - 5) 5 = "never")
      | _ -> Alcotest.failf "for_epochs %s must be rejected" bad)
    [ "1e30"; "4611686018427387904"; "1.5"; "0"; "-3"; "1000001"; "\"2\"" ];
  match Serve.Alerts.rules_of_json (Obs.Json.of_string (rule_doc "1000000")) with
  | [ r ] -> Alcotest.(check int) "the largest streak parses" 1_000_000 r.streak
  | _ -> Alcotest.fail "expected one rule"

let suite =
  [
    Alcotest.test_case "check at the bound" `Quick test_check_at_the_bound;
    Alcotest.test_case "non-finite values fail" `Quick test_non_finite_fails;
    Alcotest.test_case "absent policy" `Quick test_absent_policy;
    Alcotest.test_case "streak fires and resolves" `Quick test_streak;
    Alcotest.test_case "default gates and rules" `Quick test_default_gates_table;
    Alcotest.test_case "describe and call" `Quick test_describe_and_call;
    Alcotest.test_case "rule streak codec" `Quick test_rule_streak_codec;
  ]
