(* One run of one workload; run.py builds this and passes its arguments
   through. The last line of stdout is the result object:
   with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
   ones. See README.md. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let cli = ref ""
let work = ref ".bench_work"
let commit = ref "unknown"

let specs =
  [ ("--workload", Arg.Set_string workload, "NAME census-tcp | census-quic | serve-delta");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "N length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--cli", Arg.Set_string cli, "PATH nebby_cli.exe, for first_verdict_s");
    ("--work", Arg.Set_string work, "DIR scratch directory for stores");
    ("--commit", Arg.Set_string commit, "ID source revision, recorded with the run") ]

let usage () =
  prerr_endline (Arg.usage_string specs "bench.exe --workload NAME [options]");
  exit 2

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %f kB" (fun kb -> kb /. 1024.0))
  |> Option.value ~default:0.0

(* Wall time from starting a fresh CLI process to its exit after the first
   verdict — the CLI's own training included. *)
let first_verdict (plan : Workload.plan) =
  let store = Filename.concat !work (Printf.sprintf "first-verdict-%d.journal" plan.seed) in
  let args =
    match plan.kind with
    | Workload.Census_tcp -> [ "census"; "--sites"; "1"; "--jobs"; "1" ]
    | Workload.Census_quic -> [ "census"; "--sites"; "1"; "--jobs"; "1"; "--proto"; "quic" ]
    | Workload.Serve_delta ->
      [ "serve"; "--sites"; "1"; "--epochs"; "1"; "--jobs"; "1"; "--store"; store ]
  in
  let args = Array.of_list ((!cli :: args) @ [ "--seed"; string_of_int plan.seed ]) in
  let out = Filename.concat !work "first-verdict.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Spans.now () in
  let pid = Unix.create_process !cli args Unix.stdin fd null in
  let _, status = Unix.waitpid [] pid in
  let wall = Spans.now () -. t0 in
  Unix.close fd;
  Unix.close null;
  Workload.remove_store store;
  let printed = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  let ok = status = Unix.WEXITED 0 && String.length printed > 0 in
  (wall, ok)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (x : Workload.metric) ->
         Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" x.metric x.value x.unit_)
       metrics)

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe";
  let kind = match List.assoc_opt !workload Workload.kinds with Some k -> k | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  if !trace = 0 && not (Sys.file_exists !cli) then begin
    prerr_endline "bench.exe: --cli must name the built nebby_cli.exe";
    exit 2
  end;
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let plan = Workload.plan kind ~seed:!seed ~seconds:!seconds ~work_dir:!work in
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d sites=%d jobs=%d nproc=%d ocaml=%s \
     commit=%s\n%!"
    !workload !seed !seconds !trace plan.sites plan.jobs (Workload.nproc ()) Sys.ocaml_version
    !commit;
  let failures, metrics =
    if !trace = 0 then begin
      (* Set-ups and CLI processes alternate, so a burst of load on the
         host lands on one sample of each rather than on all of one. *)
      let runs = List.init 3 (fun _ -> (Workload.setup plan, first_verdict plan)) in
      let st = fst (List.hd runs) in
      let setup_s =
        Spans.median (List.map (fun ((s : Workload.setup), _) -> s.train_s +. s.generate_s) runs)
      in
      let verdicts = List.map snd runs in
      let outcome = Workload.run plan st in
      let failures = Workload.check plan st outcome in
      let failures =
        if List.for_all snd verdicts then failures else "nebby CLI run failed" :: failures
      in
      let m = Workload.m in
      ( failures,
        [ m "setup_s" "s" setup_s;
          m "first_verdict_s" "s" (Spans.median (List.map fst verdicts));
          m "sites_per_s" "sites/s" (float_of_int plan.sites /. outcome.phase_s);
          m "accuracy" "ratio" (Workload.accuracy plan st.websites outcome.labels);
          m "verdict_frac" "ratio" (1.0 -. Workload.unknown_frac outcome.labels);
          m "peak_rss_mb" "MB" (peak_rss_mb ()) ] )
    end
    else begin
      let runs = ref 0 in
      let h = Obs.Events.on (function Obs.Events.Training_run _ -> incr runs | _ -> ()) in
      let st = Fun.protect ~finally:(fun () -> Obs.Events.off h) (fun () -> Workload.setup plan) in
      let l = Workload.per_layer plan st in
      Spans.write l.spans
        (Filename.concat !work (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      let m = Workload.m in
      ( l.failures,
        [ m "training.train_s" "s" st.train_s; m "training.runs" "count" (float_of_int !runs);
          m "population.generate_ms" "ms" (1000.0 *. st.generate_s) ]
        @ l.metrics )
    end
  in
  Workload.remove_store (Workload.store_path plan);
  let failures =
    failures
    @ List.filter_map
        (fun (x : Workload.metric) ->
          if Float.is_finite x.value then None
          else Some (x.metric ^ " is not a finite number"))
        metrics
  in
  let metrics =
    List.map
      (fun (x : Workload.metric) -> if Float.is_finite x.value then x else { x with value = 0.0 })
      metrics
  in
  List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) failures;
  let attempted = plan.sites * if kind = Workload.Serve_delta then 1 + plan.delta_epochs else 1 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = []) attempted (List.length failures) (json_metrics metrics)
