(* Tests for the baseline tools (Gordon, CAAI) and the Table-1 matrix. *)

let control = lazy (Controls.get ~runs:10 ~quic_runs:5 ~seed:7)

let test_caai_measures_window_based () =
  List.iter
    (fun cca ->
      let r = Baselines.Caai.measure cca in
      Alcotest.(check bool)
        (Printf.sprintf "%s burst ratio %.2f ~ 1" cca r.Baselines.Caai.burst_ratio)
        true
        (r.burst_ratio > 0.8 && r.burst_ratio < 1.3))
    [ "newreno"; "cubic"; "vegas" ]

let test_caai_fails_on_rate_based () =
  let r = Baselines.Caai.measure "bbr" in
  Alcotest.(check bool)
    (Printf.sprintf "bbr burst ratio %.2f << 1" r.Baselines.Caai.burst_ratio)
    true (r.burst_ratio < 0.6)

let test_caai_ack_clocked_predicate () =
  Alcotest.(check bool) "newreno is ack-clocked" true (Baselines.Caai.ack_clocked "newreno");
  Alcotest.(check bool) "bbr is not" false (Baselines.Caai.ack_clocked "bbr")

let test_gordon_mostly_blocked () =
  let control = Lazy.force control in
  let sites = Internet.Population.generate ~n:200 ~seed:5 () in
  let tally = Baselines.Gordon.survey ~control ~region:Internet.Region.Singapore sites in
  let get k = Option.value ~default:0 (List.assoc_opt k tally) in
  let blocked = get "short_flow" + get "unresponsive" in
  (* Appendix A: >80% of Gordon's probes are served error pages or nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "blocked %d/200" blocked)
    true
    (blocked > 140);
  let identified = 200 - blocked - get "unknown" in
  Alcotest.(check bool)
    (Printf.sprintf "identified %d/200 (paper: ~4%%)" identified)
    true
    (identified < 30)

let test_gordon_outcome_labels () =
  Alcotest.(check string) "short flow label" "short_flow"
    (Baselines.Gordon.outcome_label Baselines.Gordon.Short_flow);
  Alcotest.(check string) "identified label" "cubic"
    (Baselines.Gordon.outcome_label (Baselines.Gordon.Identified "cubic"))

let test_table1_matrix () =
  Alcotest.(check int) "five tools" 5 (List.length Baselines.Tool_properties.tools);
  Alcotest.(check int) "seven criteria" 7 (List.length Baselines.Tool_properties.criteria);
  let find name =
    List.find (fun t -> t.Baselines.Tool_properties.name = name) Baselines.Tool_properties.tools
  in
  let nebby = find "Nebby" in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("nebby satisfies " ^ c) true
        (Baselines.Tool_properties.property nebby c))
    Baselines.Tool_properties.criteria;
  Alcotest.(check bool) "gordon seems hostile" false
    (Baselines.Tool_properties.property (find "Gordon") "cannot_seem_hostile");
  Alcotest.(check bool) "only nebby handles encryption" false
    (Baselines.Tool_properties.property (find "Inspector Gadget") "works_with_encryption")

let test_table1_backed_by_experiments () =
  (* two of Table 1's crosses are not just assertions here: CAAI's metric
     fails on rate-based senders, and Gordon's probing gets blocked — both
     are demonstrated by the experiments above. This test ties the matrix
     to those behaviours. *)
  let caai = List.find (fun t -> t.Baselines.Tool_properties.name = "CAAI") Baselines.Tool_properties.tools in
  Alcotest.(check bool) "CAAI's 'good metric' cross matches its burst failure" false
    (Baselines.Tool_properties.property caai "good_metric")

let suite =
  [
    Alcotest.test_case "caai measures window-based CCAs" `Slow test_caai_measures_window_based;
    Alcotest.test_case "caai fails on rate-based CCAs" `Quick test_caai_fails_on_rate_based;
    Alcotest.test_case "caai ack-clocked predicate" `Slow test_caai_ack_clocked_predicate;
    Alcotest.test_case "gordon is mostly blocked in 2023" `Slow test_gordon_mostly_blocked;
    Alcotest.test_case "gordon outcome labels" `Quick test_gordon_outcome_labels;
    Alcotest.test_case "table 1 matrix is faithful" `Quick test_table1_matrix;
    Alcotest.test_case "table 1 crosses match experiments" `Quick test_table1_backed_by_experiments;
  ]
