(* What the benchmark guarantees: every metric that is a count or a share
   repeats exactly for one seed, every check passes on a clean run, and
   the worker count never changes a verdict. Small populations and a
   small control keep this fast; the properties do not depend on size. *)

open Perfbench

let deterministic =
  [ "measurement.attempts_per_site"; "netsim.sim_events_per_site"; "serve.remeasured_frac";
    "measurement.unknown_frac" ]

let control = lazy (Nebby.Training.train ~runs_per_cca:2 ~quic_runs_per_cca:2 ())

let setup (plan : Workload.plan) =
  { Workload.control = Lazy.force control;
    websites = Internet.Population.generate ~n:plan.sites ~seed:plan.seed ();
    train_s = 0.0; generate_s = 0.0 }

let plan kind sites = Workload.plan kind ~seed:3 ~seconds:1 ~sites ~work_dir:"."

let repeats kind sites () =
  let plan = plan kind sites in
  let st = setup plan in
  let run () =
    let l = Workload.per_layer plan st in
    Alcotest.(check (list string)) "checks pass" [] l.failures;
    ( Workload.accuracy plan st.websites l.outcome.labels,
      List.map
        (fun name ->
          (name, (List.find (fun (x : Workload.metric) -> x.metric = name) l.metrics).value))
        deterministic )
  in
  let acc1, first = run () and acc2, second = run () in
  Alcotest.(check (float 0.0)) "accuracy" acc1 acc2;
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check (float 0.0)) name a b)
    first second;
  Workload.remove_store (Workload.store_path plan)

let jobs_agree () =
  let base = plan Workload.Census_tcp 10 in
  let st = setup base in
  let labels jobs = (Workload.run { base with jobs } st).labels in
  Alcotest.(check (array string)) "jobs=1 = jobs=2" (labels 1) (labels 2)

(* Root 0..10 on lane 0; a pool 1..9 whose two tasks run on lanes 1 and 2
   (2..8 and 2..5), the first with a simulate child 3..6. The two lanes
   split 2..5 evenly; elsewhere one innermost span takes each instant. *)
let waterfall_adds_up () =
  let t = Spans.create () in
  let root = Spans.add t ~lane:0 ~name:"phase" 0.0 10.0 in
  let pool = Spans.add t ~parent:root ~lane:0 ~name:"pool" 1.0 9.0 in
  let a = Spans.add t ~parent:pool ~lane:1 ~name:"site" 2.0 8.0 in
  ignore (Spans.add t ~parent:pool ~lane:2 ~name:"site" 2.0 5.0);
  ignore (Spans.add t ~parent:a ~lane:1 ~name:"simulate" 3.0 6.0);
  let root = List.find (fun s -> s.Spans.id = root) (Spans.spans t) in
  let rows, own = Spans.attribute ~root (Spans.spans t) in
  let row n = List.assoc n rows in
  Alcotest.(check (float 1e-9)) "unattributed" 2.0 own;
  Alcotest.(check (float 1e-9)) "pool" 2.0 (row "pool");
  Alcotest.(check (float 1e-9)) "simulate" 2.0 (row "simulate");
  Alcotest.(check (float 1e-9)) "site" 4.0 (row "site");
  Alcotest.(check (float 1e-9)) "sum" 10.0 (own +. List.fold_left (fun a (_, x) -> a +. x) 0.0 rows)

let () =
  Alcotest.run "perfbench"
    [ ( "determinism",
        [ Alcotest.test_case "census-tcp metrics repeat" `Quick (repeats Workload.Census_tcp 10);
          Alcotest.test_case "census-quic metrics repeat" `Quick (repeats Workload.Census_quic 100);
          Alcotest.test_case "serve-delta metrics repeat" `Quick (repeats Workload.Serve_delta 8);
          Alcotest.test_case "labels independent of jobs" `Quick jobs_agree ] );
      ("waterfall", [ Alcotest.test_case "rows add up to the wall time" `Quick waterfall_adds_up ]) ]
