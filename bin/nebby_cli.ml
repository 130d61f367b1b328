(* Command-line front end: measure simulated servers, dump BiF traces, run
   mini censuses, stress the pipeline with fault injection — the
   wget/quiche/tcpdump glue of the original tool.

   Exit codes are distinct and scriptable:
     0  success
     1  classification failure (measurement ended in "unknown")
     2  invalid arguments
     3  internal error (uncaught exception or broken invariant) *)

open Cmdliner

let exit_ok = 0
let exit_unclassified = 1
let exit_usage = 2
let exit_internal = 3

(* Reader errors. Every subcommand reads its input files through [read_input]:
   a file that is malformed, of the wrong kind or from another schema
   version surfaces as [Bad_input] with a message naming the path (and
   the kind), and [with_inputs] turns it, like an unreadable path, into
   exit code 2. *)
exception Bad_input of string

let read_input path read =
  try read path with
  | Obs.Envelope.Version_mismatch { kind; expected; got } ->
    raise
      (Bad_input
         (Printf.sprintf
            "%s: %s schema version mismatch (file has v%d, this build reads v%d); \
             regenerate it with this binary"
            path kind got expected))
  | Obs.Json.Parse_error msg -> raise (Bad_input (path ^ ": " ^ msg))

let with_inputs ~cmd f =
  try f () with
  | Bad_input msg | Sys_error msg ->
    Printf.eprintf "nebby %s: %s\n" cmd msg;
    exit_usage

let read_all path = In_channel.with_open_bin path In_channel.input_all
let read_pool_trace path = read_input path (fun p -> Obs.Pooltrace.of_string (read_all p))

let read_ledger store =
  read_input store (fun store -> Serve.Observatory.ledger_of_store ~store)

let cca_arg =
  let doc = "Target server's CCA (a registry name, e.g. cubic, bbr, akamai_cc)." in
  Arg.(value & opt string "cubic" & info [ "cca" ] ~docv:"CCA" ~doc)

(* Arg.enum rejects typos with a proper usage error listing the
   alternatives, instead of an uncaught Invalid_argument. *)
let proto_arg =
  let protos = [ ("tcp", Netsim.Packet.Tcp); ("quic", Netsim.Packet.Quic) ] in
  let doc = Printf.sprintf "Transport: %s." (Arg.doc_alts_enum protos) in
  Arg.(value & opt (enum protos) Netsim.Packet.Tcp & info [ "proto" ] ~docv:"PROTO" ~doc)

let noise_arg =
  let noises =
    [ ("quiet", Netsim.Path.quiet); ("mild", Netsim.Path.mild); ("heavy", Netsim.Path.heavy) ]
  in
  let doc = Printf.sprintf "Wide-area noise: %s." (Arg.doc_alts_enum noises) in
  Arg.(value & opt (enum noises) Netsim.Path.mild & info [ "noise" ] ~docv:"NOISE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Training counts go through Training.config, the one place that decides
   what is trainable: a count it rejects (fewer than two runs per CCA) is a
   usage error reported against its flag, not a crash. Each subcommand
   keeps its own default. *)
let count_conv check =
  let parse s =
    match int_of_string_opt s with
    | Some n -> Result.map (fun _ -> n) (check n)
    | None -> Error (Printf.sprintf "invalid value %S, expected an integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let training_runs_arg
    ?(doc = "Training runs per CCA (more runs, tighter clusters, slower start).") default =
  Arg.(
    value
    & opt (count_conv (fun n -> Nebby.Training.config ~runs_per_cca:n ())) default
    & info [ "training-runs" ] ~docv:"N" ~doc)

(* --sites, shared by every subcommand that builds a population: a
   negative size is a usage error, not a crash. *)
let sites_arg ~doc default =
  let non_negative n =
    if n < 0 then Error (Printf.sprintf "%d sites: a population cannot be negative" n)
    else Ok n
  in
  Arg.(value & opt (count_conv non_negative) default & info [ "sites" ] ~docv:"N" ~doc)

(* --region, shared like --sites: an unknown vantage point is a usage
   error that lists the known ones. *)
let region_arg ~doc =
  let regions = List.map (fun r -> (Internet.Region.name r, r)) Internet.Region.all in
  Arg.(
    value
    & opt (enum regions) (List.assoc "Ohio" regions)
    & info [ "region" ] ~docv:"REGION" ~doc)

(* The training configuration of a subcommand: --training-runs over the
   default QUIC runs and seed. *)
let training_arg default =
  Term.(
    term_result' ~usage:true
      (const (fun runs -> Nebby.Training.config ~runs_per_cca:runs ())
      $ training_runs_arg default))

let max_attempts_arg =
  let doc = "Measurement attempts before giving up." in
  Arg.(
    value
    & opt int Nebby.Measurement.default_config.max_attempts
    & info [ "max-attempts" ] ~docv:"N" ~doc)

(* 0 means "auto": one worker per available core, minus one for the
   collector. Results are bit-identical for every value (see DESIGN.md,
   "Multicore census engine"), so the flag only changes wall-clock. *)
let jobs_arg =
  let doc =
    "Worker domains for parallel measurement (0 = auto-size to the machine; 1 = serial)."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resolve_jobs = function 0 -> Engine.Pool.default_jobs () | n -> max 1 n

(* Multi-seed fan-out: campaign and chaos share one --seeds/--seed-list
   vocabulary (and the bench harness accepts the same pair), all resolved
   through Obs.Campaign.resolve_seeds so the validation and the error
   messages are identical everywhere. *)
let seeds_count_arg =
  let doc =
    "Fan the command across $(docv) consecutive seeds starting at --seed (alternative to \
     --seed-list)."
  in
  Arg.(value & opt (some int) None & info [ "seeds" ] ~docv:"N" ~doc)

let seed_list_arg =
  let doc =
    "Fan the command across exactly these comma-separated seeds (alternative to --seeds)."
  in
  Arg.(value & opt (some (list int)) None & info [ "seed-list" ] ~docv:"A,B,C" ~doc)

let resolve_seed_spec ~cmd ?count ?seed_list ~base () =
  match Obs.Campaign.resolve_seeds ?count ?seed_list ~base () with
  | Ok seeds -> Some seeds
  | Error msg ->
    Printf.eprintf "nebby %s: %s\n" cmd msg;
    None

let default_telemetry_file = "nebby-telemetry.jsonl"

let telemetry_arg =
  let doc =
    Printf.sprintf
      "Write structured telemetry (events, spans, metrics) as JSONL to $(docv); inspect it \
       with $(b,nebby stats) (which defaults to %s)."
      default_telemetry_file
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let chrome_arg =
  let doc =
    "Also write a Chrome trace_event JSON of all spans to $(docv); open it in \
     chrome://tracing or ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

let provenance_arg =
  let doc =
    "Write decision-provenance verdict reports as JSONL to $(docv); re-read them with \
     $(b,nebby explain) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE" ~doc)

let prof_folded_arg =
  let doc =
    "Write a folded-stack profile of the run to $(docv) (flamegraph.pl / \
     inferno-flamegraph input: one $(i,stack self-microseconds) line per stage)."
  in
  Arg.(value & opt (some string) None & info [ "prof-folded" ] ~docv:"FILE" ~doc)

let prof_json_arg =
  let doc =
    "Write the per-stage profiler summary (calls, wall and self time, allocation, major \
     GC collections) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "prof-json" ] ~docv:"FILE" ~doc)

let prof_table_arg =
  Arg.(
    value & flag
    & info [ "prof" ] ~doc:"Print the per-stage profiler table after the run.")

let log_level_arg =
  let levels =
    [
      ("quiet", Obs.Runtime.Quiet);
      ("normal", Obs.Runtime.Normal);
      ("debug", Obs.Runtime.Debug);
    ]
  in
  let doc =
    Printf.sprintf
      "Observability detail: %s. Sets the flight-recorder level (quiet keeps only \
       anomalies, debug adds per-packet enqueues) and quiet silences non-error notes on \
       stderr."
      (Arg.doc_alts_enum levels)
  in
  Arg.(
    value
    & opt (enum levels) Obs.Runtime.Normal
    & info [ "log-level" ] ~docv:"LEVEL" ~doc)

(* informational stderr chatter; errors keep using Printf.eprintf *)
let note fmt =
  if Obs.Runtime.level () = Obs.Runtime.Quiet then Printf.ifprintf stderr fmt
  else Printf.eprintf fmt

(* The one way a subcommand gets its control models. A control is a pure
   function of its training configuration and of the code that trains it,
   so it is loaded from the on-disk cache (Nebby.Control_cache, keyed by
   the configuration and stamped with this executable's digest) when this
   binary has trained it before, and trained and stored otherwise. Hits
   and misses are reported at --log-level debug only: the output is the
   same either way. *)
let binary_digest =
  lazy (try Some (Digest.to_hex (Digest.file Sys.executable_name)) with Sys_error _ -> None)

let control_of training =
  let binary = Lazy.force binary_digest in
  let dir = if binary = None then None else Nebby.Control_cache.default_dir () in
  let control, outcome =
    Nebby.Control_cache.acquire ~dir ~binary:(Option.value ~default:"" binary) training
  in
  if Obs.Runtime.level () = Obs.Runtime.Debug then begin
    let entry =
      match dir with
      | Some dir -> Nebby.Control_cache.entry_path ~dir training
      | None -> "(no cache directory)"
    in
    match outcome with
    | Nebby.Control_cache.Hit -> Printf.eprintf "nebby: control cache hit: %s\n%!" entry
    | Nebby.Control_cache.Miss { reason; store_error } ->
      Printf.eprintf "nebby: control cache miss (%s): trained, %s\n%!" reason
        (match store_error with
        | None -> "stored at " ^ entry
        | Some e -> "not stored: " ^ e)
  end;
  control

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* Wrap a run in the profiler when any profiler output was requested. *)
let with_profiling ~prof ~folded ~json f =
  if not (prof || folded <> None || json <> None) then f ()
  else begin
    let result, profile = Obs.Prof.record f in
    Option.iter (fun path -> write_file path (Obs.Prof.folded profile)) folded;
    Option.iter
      (fun path -> write_file path (Obs.Json.to_string (Obs.Prof.to_json profile) ^ "\n"))
      json;
    if prof then print_string (Obs.Prof.render profile);
    result
  end

let write_provenance_jsonl path reports =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (Obs.Provenance.write_jsonl oc) reports)

(* Golden-fixture replay, shared by `explain` and `report`: parse the
   committed observation lists back into traces and re-run the
   preparation pipeline on them. *)
let jfail what = raise (Obs.Json.Parse_error ("fixture: " ^ what))

let jfloat j =
  match Obs.Json.to_float j with Some x -> x | None -> jfail "expected a number"

let jstr j = match Obs.Json.to_str j with Some s -> s | None -> jfail "expected a string"

let jlist j =
  match Obs.Json.to_list j with Some l -> l | None -> jfail "expected an array"

let jmember key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> jfail (Printf.sprintf "missing field %S" key)

let obs_of_json j =
  match jlist j with
  | time :: dir :: size :: rest ->
    let dir =
      if jfloat dir = 0.0 then Netsim.Packet.To_client else Netsim.Packet.To_server
    in
    let view =
      match rest with
      | [] -> Netsim.Trace.Opaque
      | [ seq; payload; ack; is_ack ] ->
        Netsim.Trace.Tcp_view
          {
            seq = int_of_float (jfloat seq);
            payload = int_of_float (jfloat payload);
            ack = int_of_float (jfloat ack);
            is_ack = jfloat is_ack <> 0.0;
          }
      | _ -> jfail "observation has neither 3 nor 7 fields"
    in
    { Netsim.Trace.time = jfloat time; dir; size = int_of_float (jfloat size); view }
  | _ -> jfail "observation too short"

(* (cca, [(profile, bif estimate, prepared pipeline)]) of a fixture *)
let fixture_entries fixture =
  let cca = jstr (jmember "cca" fixture) in
  let entries =
    List.map
      (fun t ->
        let profile = jstr (jmember "profile" t) in
        let rtt = jfloat (jmember "rtt" t) in
        let obs = List.map obs_of_json (jlist (jmember "obs" t)) in
        let trace = Netsim.Trace.of_observations obs in
        let bif = Nebby.Bif.estimate trace in
        (profile, bif, Nebby.Pipeline.prepare ~rtt bif))
      (jlist (jmember "traces" fixture))
  in
  (cca, entries)

let replay_fixture ~control fixture =
  let cca, entries = fixture_entries fixture in
  let _, report =
    Nebby.Measurement.explain_prepared ~control:(Lazy.force control) ~subject:cca entries
  in
  report

let reports_of_file ~control target =
  match Obs.Json.of_string (read_all target) with
  | json ->
    if Obs.Json.member "traces" json <> None then [ replay_fixture ~control json ]
    else [ Obs.Provenance.of_json json ]
  | exception Obs.Json.Parse_error _ ->
    (* not one JSON document: a multi-record provenance JSONL *)
    Obs.Provenance.read_jsonl target

let print_failure_chain (report : Nebby.Measurement.report) =
  Printf.eprintf "nebby: classification failed after %d attempt%s; reason chain: %s\n"
    report.attempts
    (if report.attempts = 1 then "" else "s")
    (String.concat " -> "
       (List.map Nebby.Measurement.failure_reason_label report.failures))

let measure_cmd =
  let flight_arg =
    let doc =
      "Write the anomaly-triggered flight-recorder dump (packet-level JSONL) to $(docv); \
       render it with $(b,nebby report) $(docv). Only written when a trigger fired — any \
       typed failure, or a verdict under the confidence/margin thresholds."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let flight_confidence_arg =
    let doc =
      "Confidence threshold under which a verdict triggers a flight dump (set to 2 to \
       force a dump on every verdict)."
    in
    Arg.(
      value
      & opt float Nebby.Measurement.default_config.flight_confidence
      & info [ "flight-confidence" ] ~docv:"X" ~doc)
  in
  let run cca proto noise seed training max_attempts log_level flight flight_confidence
      telemetry chrome provenance prof folded prof_json =
    Obs.Runtime.set_level log_level;
    let config =
      { Nebby.Measurement.default_config with max_attempts; flight_confidence }
    in
    let report =
      with_profiling ~prof ~folded ~json:prof_json (fun () ->
          let control = control_of training in
          let plugins = Nebby.Classifier.extended_plugins control in
          Obs.Telemetry.record ?jsonl:telemetry ?chrome (fun () ->
              Nebby.Measurement.measure ~control ~plugins ~proto ~noise ~seed ~config
                ~subject:cca ~make_cca:(Cca.Registry.create cca) ()))
    in
    Printf.printf "target CCA : %s\n" cca;
    Printf.printf "classified : %s (after %d attempt%s)\n" report.Nebby.Measurement.label
      report.attempts
      (if report.attempts = 1 then "" else "s");
    List.iter (fun (p, l) -> Printf.printf "  profile %-16s -> %s\n" p l) report.per_profile;
    Option.iter (Printf.printf "telemetry  : %s\n") telemetry;
    Option.iter (Printf.printf "chrome trace: %s\n") chrome;
    Option.iter
      (fun path ->
        match report.Nebby.Measurement.provenance with
        | Some p ->
          write_provenance_jsonl path [ p ];
          Printf.printf "provenance : %s\n" path
        | None -> note "nebby measure: no verdict report was produced\n")
      provenance;
    Option.iter
      (fun path ->
        match report.Nebby.Measurement.flight with
        | Some dump ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> Obs.Flight.write_dump oc dump);
          Printf.printf "flight dump: %s (trigger: %s, %d events)\n" path
            dump.Obs.Flight.trigger
            (List.length dump.Obs.Flight.events)
        | None ->
          note
            "nebby measure: no anomaly triggered a flight dump (force one with \
             --flight-confidence 2)\n")
      flight;
    if report.label = "unknown" then begin
      print_failure_chain report;
      exit_unclassified
    end
    else exit_ok
  in
  let doc = "Measure a simulated server and classify its CCA." in
  Cmd.v (Cmd.info "measure" ~doc)
    Term.(
      const run $ cca_arg $ proto_arg $ noise_arg $ seed_arg $ training_arg 10
      $ max_attempts_arg $ log_level_arg $ flight_arg $ flight_confidence_arg
      $ telemetry_arg $ chrome_arg $ provenance_arg $ prof_table_arg $ prof_folded_arg
      $ prof_json_arg)

let trace_cmd =
  let run cca proto noise seed =
    let profile = Nebby.Profile.delay_50ms in
    let result =
      Nebby.Testbed.run ~seed ~noise ~proto ~profile ~make_cca:(Cca.Registry.create cca) ()
    in
    Printf.printf "# time_s,bif_bytes (CCA %s, profile %s)\n" cca profile.Nebby.Profile.name;
    List.iter
      (fun (t, v) -> Printf.printf "%.4f,%.0f\n" t v)
      (Nebby.Bif.estimate result.Nebby.Testbed.trace);
    exit_ok
  in
  let doc = "Capture one measurement and print the BiF trace as CSV." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ cca_arg $ proto_arg $ noise_arg $ seed_arg)

let census_cmd =
  let pool_trace_arg =
    let doc =
      "Record the scheduler's task lifecycle (submit/steal/start/finish per site) and \
       write the trace as JSONL to $(docv); render it later with $(b,nebby stats --pool) \
       or $(b,nebby report)."
    in
    Arg.(value & opt (some string) None & info [ "pool-trace" ] ~docv:"FILE" ~doc)
  in
  let pool_report_arg =
    let doc = "Print the pool scheduler report (wait/run histograms, per-domain table)." in
    Arg.(value & flag & info [ "pool-report" ] ~doc)
  in
  let run sites region proto seed training jobs log_level provenance pool_trace pool_report
      prof folded prof_json =
    Obs.Runtime.set_level log_level;
    let websites = Internet.Population.generate ~n:sites ~seed () in
    let jobs = resolve_jobs jobs in
    let print_tally tally =
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 tally in
      Printf.printf "%-14s %8s %8s\n" "variant" "sites" "share";
      List.iter
        (fun (label, n) ->
          Printf.printf "%-14s %8d %7.1f%%\n" label n
            (100.0 *. float_of_int n /. float_of_int total))
        tally
    in
    let tracing = pool_trace <> None || pool_report in
    if tracing then Obs.Pooltrace.set_enabled true;
    let finish_trace () =
      if tracing then begin
        let trace = Obs.Pooltrace.drain () in
        Option.iter
          (fun path ->
            write_file path (Obs.Pooltrace.to_string trace);
            Printf.printf "pool trace : %s (%d tasks)\n" path
              (List.length trace.Obs.Pooltrace.tasks))
          pool_trace;
        if pool_report then begin
          print_newline ();
          print_string (Obs.Pooltrace.report trace)
        end
      end
    in
    with_profiling ~prof ~folded ~json:prof_json (fun () ->
        let control = control_of training in
        match provenance with
        | None ->
          print_tally (Internet.Census.run ~jobs ~control ~proto ~region websites);
          finish_trace ();
          exit_ok
        | Some path ->
          (* The explained census carries full verdict reports; its labels
             are bit-identical to the plain path. *)
          let explained =
            Internet.Census.explained ~jobs ~control ~proto ~region websites
          in
          print_tally
            (Internet.Census.tally_of_labels
               (List.map
                  (fun (site, r) -> (site, r.Nebby.Measurement.label))
                  explained));
          write_provenance_jsonl path (Internet.Census.provenance_reports explained);
          print_newline ();
          print_string
            (Obs.Provenance.render_dists ~header:"confidence"
               (Internet.Census.confidence_dists explained));
          print_newline ();
          print_string
            (Obs.Provenance.render_dists ~header:"margin"
               (Internet.Census.margin_dists explained));
          Printf.printf "\nprovenance : %s\n" path;
          finish_trace ();
          exit_ok)
  in
  let doc = "Run a mini census over the synthetic website population." in
  Cmd.v (Cmd.info "census" ~doc)
    Term.(
      const run
      $ sites_arg ~doc:"Number of websites to measure." 100
      $ region_arg ~doc:"Vantage point." $ proto_arg $ seed_arg $ training_arg 10
      $ jobs_arg $ log_level_arg $ provenance_arg $ pool_trace_arg $ pool_report_arg
      $ prof_table_arg $ prof_folded_arg $ prof_json_arg)

let accuracy_cmd =
  let trials_arg =
    Arg.(value & opt int 5 & info [ "trials" ] ~docv:"N" ~doc:"Trials per CCA.")
  in
  let run trials training =
    let control = control_of training in
    let plugins = Nebby.Classifier.extended_plugins control in
    let total_ok = ref 0 and total = ref 0 in
    List.iter
      (fun name ->
        let ok = ref 0 in
        for i = 0 to trials - 1 do
          let r =
            Nebby.Measurement.measure_cca ~control ~plugins ~seed:(1000 + (i * 101)) name
          in
          if r.Nebby.Measurement.label = name then incr ok
        done;
        total_ok := !total_ok + !ok;
        total := !total + trials;
        Printf.printf "%-10s %d/%d\n%!" name !ok trials)
      (Cca.Registry.kernel_ccas @ [ "bbr2" ]);
    Printf.printf "average accuracy: %.1f%%\n"
      (100.0 *. float_of_int !total_ok /. float_of_int !total);
    exit_ok
  in
  let doc = "Evaluate classification accuracy over the kernel CCAs (Table 3)." in
  Cmd.v (Cmd.info "accuracy" ~doc) Term.(const run $ trials_arg $ training_arg 10)

let chaos_cmd =
  let names_conv = Arg.(some (list string)) in
  let list_arg ~name ~doc =
    Arg.(value & opt names_conv None & info [ name ] ~docv:"NAMES" ~doc)
  in
  let ccas_arg =
    list_arg ~name:"ccas"
      ~doc:"Comma-separated CCA registry names to measure (default: the full registry)."
  in
  let families_arg =
    list_arg ~name:"families"
      ~doc:
        "Comma-separated fault families to inject (default: all). The fault-free baseline \
         row always runs."
  in
  let list_families_arg =
    Arg.(value & flag & info [ "list-families" ] ~doc:"Print the fault families and exit.")
  in
  let dump_plans_arg =
    Arg.(
      value & flag
      & info [ "dump-plans" ]
          ~doc:"Print the seeded fault plans of the suite as JSON and exit.")
  in
  let run ccas families seed count seed_list training max_attempts proto jobs log_level
      telemetry chrome list_families dump_plans =
    Obs.Runtime.set_level log_level;
    if list_families then begin
      List.iter print_endline Nebby.Chaos.family_names;
      exit_ok
    end
    else if dump_plans then begin
      List.iter
        (fun (family, plan) ->
          Printf.printf "%-18s %s\n" family (Faults.to_string plan))
        (Nebby.Chaos.standard_suite ~seed ());
      exit_ok
    end
    else begin
      let bad_ccas =
        match ccas with
        | None -> []
        | Some cs -> List.filter (fun c -> not (List.mem c Cca.Registry.all)) cs
      in
      let bad_families =
        match families with
        | None -> []
        | Some fs -> List.filter (fun f -> not (List.mem f Nebby.Chaos.family_names)) fs
      in
      if bad_ccas <> [] || bad_families <> [] then begin
        List.iter (Printf.eprintf "nebby chaos: unknown CCA %s\n") bad_ccas;
        List.iter
          (fun f ->
            Printf.eprintf "nebby chaos: unknown fault family %s (expected one of %s)\n" f
              (String.concat ", " Nebby.Chaos.family_names))
          bad_families;
        exit_usage
      end
      else begin
        match resolve_seed_spec ~cmd:"chaos" ?count ?seed_list ~base:seed () with
        | None -> exit_usage
        | Some seeds ->
          let control = control_of training in
          let config = { Nebby.Measurement.default_config with max_attempts } in
          let matrices =
            Obs.Telemetry.record ?jsonl:telemetry ?chrome (fun () ->
                List.map
                  (fun seed ->
                    Nebby.Chaos.run_matrix ?ccas ?families ~config ~seed ~proto
                      ~jobs:(resolve_jobs jobs) ~control ())
                  seeds)
          in
          let violations = ref 0 in
          List.iter2
            (fun seed matrix ->
              if List.length seeds > 1 then Printf.printf "=== seed %d ===\n" seed;
              print_string (Nebby.Chaos.render matrix);
              if List.length seeds > 1 then print_newline ();
              violations := !violations + List.length matrix.Nebby.Chaos.violations)
            seeds matrices;
          Option.iter (Printf.printf "\ntelemetry  : %s\n") telemetry;
          if !violations > 0 then begin
            Printf.eprintf
              "nebby chaos: resilience invariant broken: %d cell(s) ended unknown \
               without a reason chain\n"
              !violations;
            exit_internal
          end
          else exit_ok
      end
    end
  in
  let doc =
    "Measure CCAs under a standard fault-injection suite and report accuracy degradation \
     per fault family."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ ccas_arg $ families_arg $ seed_arg $ seeds_count_arg $ seed_list_arg
      $ training_arg 10 $ max_attempts_arg $ proto_arg $ jobs_arg $ log_level_arg
      $ telemetry_arg $ chrome_arg $ list_families_arg $ dump_plans_arg)

(* `fuzz` — coverage-guided adversarial search (lib/search): breed fault
   plans and path perturbations against the measurement pipeline, minimize
   each new counterexample class with delta debugging, and emit
   schema-versioned regression fixtures. The corpus and fixture set are a
   pure function of (training, budget, seed): any --jobs value produces
   byte-identical output. `--replay DIR` re-verifies committed fixtures
   instead of searching. *)
let fuzz_cmd =
  let budget_arg =
    let doc = "Search evaluations per seed (minimization evaluations are extra)." in
    Arg.(value & opt int 64 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let target_arg =
    let doc =
      "Comma-separated CCA registry names to attack, or $(b,all) for the full registry \
       (default: the loss-based kernel set plus bbr)."
    in
    Arg.(value & opt (some (list string)) None & info [ "target" ] ~docv:"CCA|all" ~doc)
  in
  let out_arg =
    let doc = "Directory minimized fixtures are written to." in
    Arg.(value & opt string "test/adversarial" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let corpus_arg =
    let doc =
      "Write the final corpus as JSONL to $(docv): one {signature, fitness, genome} \
       object per admitted entry, in admission order — the determinism witness two runs \
       can be diffed on."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay every fixture in $(docv) instead of searching; exits 1 if any no longer \
       reproduces its recorded verdict."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"DIR" ~doc)
  in
  let fuzz_attempts_arg =
    let doc = "Measurement attempts per evaluation (low: retries cost budget)." in
    Arg.(
      value
      & opt int Search.Fuzzer.default_config.Search.Fuzzer.max_attempts
      & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let replay_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "nebby fuzz: no fixture directory %s\n" dir;
      exit_usage
    end
    else begin
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
      in
      if files = [] then begin
        Printf.eprintf "nebby fuzz: no fixtures in %s\n" dir;
        exit_usage
      end
      else begin
        (* fixtures pin their own training configuration; acquire each
           distinct one once *)
        let controls = Hashtbl.create 4 in
        let control_for training =
          let key = Nebby.Training.config_key training in
          match Hashtbl.find_opt controls key with
          | Some c -> c
          | None ->
            let c = control_of training in
            Hashtbl.add controls key c;
            c
        in
        let stale = ref 0 and broken = ref 0 in
        List.iter
          (fun file ->
            let path = Filename.concat dir file in
            match read_input path Search.Fixture.load with
            | exception Bad_input msg ->
              Printf.eprintf "nebby fuzz: %s\n" msg;
              incr broken
            | Error e ->
              Printf.eprintf "nebby fuzz: %s: %s\n" path e;
              incr broken
            | Ok fx -> (
              match
                Nebby.Training.config ~runs_per_cca:fx.Search.Fixture.training_runs
                  ~quic_runs_per_cca:fx.Search.Fixture.training_quic_runs
                  ~seed:fx.Search.Fixture.training_seed ()
              with
              | Error e ->
                Printf.eprintf "nebby fuzz: %s: training: %s\n" path e;
                incr broken
              | Ok training ->
                let status, e = Search.Fuzzer.replay ~control:(control_for training) fx in
                Printf.printf "%-48s %s (got %s, %s)\n" file
                  (Search.Fuzzer.replay_status_label status)
                  e.Search.Fuzzer.got
                  (Search.Fixture.class_label e.Search.Fuzzer.verdict_class);
                (match status with
                | Search.Fuzzer.Reproduced -> ()
                | Search.Fuzzer.Fixed ->
                  Printf.eprintf
                    "nebby fuzz: %s now classifies correctly — remove the fixture or \
                     regenerate it\n"
                    file;
                  incr stale
                | Search.Fuzzer.Changed -> incr stale)))
          files;
        if !broken > 0 then exit_usage
        else if !stale > 0 then exit_unclassified
        else exit_ok
      end
    end
  in
  let run budget seed count seed_list jobs targets out corpus_file replay training_runs
      max_attempts log_level =
    Obs.Runtime.set_level log_level;
    match replay with
    | Some dir -> replay_dir dir
    | None -> begin
      let targets =
        match targets with
        | None -> Cca.Registry.kernel_ccas
        | Some [ "all" ] -> Cca.Registry.all
        | Some cs -> cs
      in
      let bad = List.filter (fun c -> not (List.mem c Cca.Registry.all)) targets in
      if bad <> [] then begin
        List.iter (Printf.eprintf "nebby fuzz: unknown CCA %s\n") bad;
        exit_usage
      end
      else begin
        match resolve_seed_spec ~cmd:"fuzz" ?count ?seed_list ~base:seed () with
        | None -> exit_usage
        | Some seeds ->
          let config =
            {
              Search.Fuzzer.default_config with
              Search.Fuzzer.budget;
              jobs = resolve_jobs jobs;
              targets;
              max_attempts;
              training_runs;
            }
          in
          let control =
            match Search.Fuzzer.training_config config with
            | Ok training -> control_of training
            | Error msg ->
              Printf.eprintf "nebby fuzz: %s\n" msg;
              exit exit_usage
          in
          let corpus_oc =
            Option.map
              (fun path ->
                let rec mkdirs d =
                  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
                  else begin
                    mkdirs (Filename.dirname d);
                    try Sys.mkdir d 0o755 with Sys_error _ -> ()
                  end
                in
                mkdirs (Filename.dirname path);
                open_out path)
              corpus_file
          in
          let written = Hashtbl.create 8 in
          let total_fixtures = ref 0 in
          List.iter
            (fun seed ->
              let result =
                Search.Fuzzer.run ~log:(fun s -> note "%s\n" s) ~control ~config ~seed ()
              in
              Printf.printf "seed %d: %d evals (+%d minimizing), corpus %d, findings %d\n"
                seed result.Search.Fuzzer.evals result.Search.Fuzzer.minimize_evals
                (List.length result.Search.Fuzzer.corpus)
                (List.length result.Search.Fuzzer.findings);
              List.iter
                (fun { Search.Fuzzer.fixture; _ } ->
                  (* first seed to hit a counterexample class wins; later
                     seeds rediscovering it are reported, not rewritten *)
                  let key =
                    (fixture.Search.Fixture.expected,
                     Search.Fixture.class_label fixture.Search.Fixture.verdict_class,
                     fixture.Search.Fixture.got)
                  in
                  if Hashtbl.mem written key then
                    Printf.printf "  duplicate of an earlier seed's %s/%s/%s find\n"
                      fixture.Search.Fixture.expected
                      (Search.Fixture.class_label fixture.Search.Fixture.verdict_class)
                      fixture.Search.Fixture.got
                  else begin
                    Hashtbl.add written key ();
                    incr total_fixtures;
                    let path = Search.Fixture.save ~dir:out fixture in
                    Printf.printf
                      "  fixture %s: %s -> %s (%s), %d spec(s), found at eval %d, \
                       minimized in %d\n"
                      path fixture.Search.Fixture.expected fixture.Search.Fixture.got
                      (Search.Fixture.class_label fixture.Search.Fixture.verdict_class)
                      (List.length
                         fixture.Search.Fixture.genome.Search.Genome.faults.Faults.specs)
                      fixture.Search.Fixture.found_at
                      fixture.Search.Fixture.minimize_steps
                  end)
                result.Search.Fuzzer.findings;
              Option.iter
                (fun oc ->
                  List.iter
                    (fun (signature, fitness, genome) ->
                      output_string oc
                        (Obs.Json.to_string
                           (Obs.Json.Obj
                              [
                                ("seed", Obs.Json.Num (float_of_int seed));
                                ("signature", Obs.Json.Str signature);
                                ("fitness", Obs.Json.Num fitness);
                                ("genome", Search.Genome.to_json genome);
                              ])
                        ^ "\n"))
                    result.Search.Fuzzer.corpus)
                corpus_oc)
            seeds;
          Option.iter close_out corpus_oc;
          Option.iter (Printf.printf "corpus     : %s\n") corpus_file;
          if !total_fixtures = 0 then begin
            Printf.eprintf
              "nebby fuzz: no counterexample found within budget %d x %d seed(s)\n" budget
              (List.length seeds);
            exit_unclassified
          end
          else exit_ok
      end
    end
  in
  let doc =
    "Coverage-guided adversarial search: breed fault plans and path perturbations that \
     make the classifier fail, minimize each counterexample, and emit regression \
     fixtures."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ budget_arg $ seed_arg $ seeds_count_arg $ seed_list_arg $ jobs_arg
      $ target_arg $ out_arg $ corpus_arg $ replay_arg
      $ training_runs_arg ~doc:"Training runs per CCA for the search's control models."
          Search.Fuzzer.default_config.Search.Fuzzer.training_runs
      $ fuzz_attempts_arg $ log_level_arg)

(* explain and report replay golden fixtures at their pinned training
   configuration by default *)
let golden_training_runs_arg =
  training_runs_arg ~doc:"Training runs per CCA (default: the golden-pinned 4)." 4

let training_quic_runs_arg =
  let doc = "QUIC training runs per CCA (default: the golden-pinned 2)." in
  Arg.(
    value
    & opt (count_conv (fun n -> Nebby.Training.config ~quic_runs_per_cca:n ())) 2
    & info [ "training-quic-runs" ] ~docv:"N" ~doc)

let training_seed_arg =
  let doc = "Training seed (default: the golden-pinned 7)." in
  Arg.(value & opt int 7 & info [ "training-seed" ] ~docv:"SEED" ~doc)

let golden_training_arg =
  Term.(
    term_result' ~usage:true
      (const (fun runs quic_runs seed ->
           Nebby.Training.config ~runs_per_cca:runs ~quic_runs_per_cca:quic_runs ~seed ())
      $ golden_training_runs_arg $ training_quic_runs_arg $ training_seed_arg))

(* `explain TARGET` resolves its target in order: an existing file (a
   golden fixture to replay, a single provenance record, or a provenance
   JSONL written by --provenance), a CCA registry name (fresh measurement
   with provenance), then a website name in the synthetic population.
   Fixture replay uses the control of the golden-pinned configuration by
   default (seed 7, 4 runs/CCA, 2 QUIC runs) so the verdict reproduces the
   committed expectations bit for bit. *)
let explain_cmd =
  let target_arg =
    let doc =
      "What to explain: a provenance JSONL file, a golden fixture (test/golden/*.json), a \
       CCA registry name, or a website name from the synthetic population."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let run target training sites region proto noise seed log_level provenance prof folded
      prof_json =
    Obs.Runtime.set_level log_level;
    let control = lazy (control_of training) in
    let render_reports reports =
      List.iteri
        (fun i r ->
          if i > 0 then print_newline ();
          print_string (Obs.Provenance.render r))
        reports
    in
    let finish reports code =
      render_reports reports;
      Option.iter
        (fun path ->
          write_provenance_jsonl path reports;
          Printf.printf "\nprovenance : %s\n" path)
        provenance;
      code
    in
    with_inputs ~cmd:"explain" (fun () ->
      with_profiling ~prof ~folded ~json:prof_json (fun () ->
          if Sys.file_exists target then
            match read_input target (reports_of_file ~control) with
            | [] ->
              Printf.eprintf "nebby explain: %s holds no provenance reports\n" target;
              exit_usage
            | reports -> finish reports exit_ok
          else if List.mem target Cca.Registry.all then begin
            let control = Lazy.force control in
            let plugins = Nebby.Classifier.extended_plugins control in
            let report =
              Nebby.Measurement.measure_cca ~control ~plugins ~proto ~noise ~seed target
            in
            match report.Nebby.Measurement.provenance with
            | Some p ->
              finish [ p ]
                (if report.Nebby.Measurement.label = "unknown" then exit_unclassified
                 else exit_ok)
            | None ->
              Printf.eprintf "nebby explain: no verdict report was produced\n";
              exit_internal
          end
          else (
            let websites = Internet.Population.generate ~n:sites ~seed () in
            match
              List.find_opt (fun s -> s.Internet.Website.name = target) websites
            with
            | None ->
              Printf.eprintf
                "nebby explain: %s is not a file, a CCA registry name, or a website in \
                 the %d-site population\n"
                target sites;
              exit_usage
            | Some site -> (
              let report =
                Internet.Census.explain_site ~control:(Lazy.force control) ~proto
                  ~region site
              in
              match report.Nebby.Measurement.provenance with
              | Some p ->
                finish [ p ]
                  (if report.Nebby.Measurement.label = "unknown" then exit_unclassified
                   else exit_ok)
              | None ->
                (* an unresponsive site has no verdict to explain *)
                Printf.printf "verdict   %s (no provenance: site did not respond)\n"
                  report.Nebby.Measurement.label;
                exit_ok))))
  in
  let doc =
    "Show the decision provenance of a classification: candidate scores, winning margin, \
     per-stage summaries, and feature vectors."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ target_arg $ golden_training_arg
      $ sites_arg ~doc:"Population size for website-name targets." 100
      $ region_arg ~doc:"Vantage point for website-name targets." $ proto_arg
      $ noise_arg $ seed_arg $ log_level_arg $ provenance_arg $ prof_table_arg
      $ prof_folded_arg $ prof_json_arg)

(* `report TARGET` renders a self-contained HTML measurement report
   (inline SVG, no scripts). The target resolves like `explain`'s: a
   flight dump written by measure --flight, a golden fixture to replay
   (test/golden/*.json — this path is the report-determinism gate), or a
   CCA registry name, measured fresh with a forced flight dump. *)
let report_cmd =
  let target_arg =
    let doc =
      "What to report on: a flight-dump JSONL (written by $(b,measure --flight)), a \
       golden fixture (test/golden/*.json), or a CCA registry name."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let out_arg =
    let doc = "Write the HTML report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let provenance_from_arg =
    let doc =
      "Attach verdict provenance from this JSONL (as written by --provenance) when the \
       target is a flight dump; the report picks the record whose subject matches the \
       dump's."
    in
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE" ~doc)
  in
  let prof_arg =
    let doc =
      "Profile the work that produces the report (training or loading the control, \
       plus the replay or measurement) and embed the per-stage waterfall in the HTML."
    in
    Arg.(value & flag & info [ "prof" ] ~doc)
  in
  (* synthesize a replay dump from a fixture's traces: one run per
     profile, a stage mark plus the BiF series *)
  let dump_of_entries ~subject entries =
    let events = ref [] in
    let seq = ref 0 in
    let span = ref 0.0 in
    let push run time kind a detail =
      events :=
        { Obs.Flight.seq = !seq; run; time; kind; a; b = 0.0; c = 0.0; detail; extra = "" }
        :: !events;
      incr seq;
      if time > !span then span := time
    in
    List.iteri
      (fun i (profile, bif, _prepared) ->
        let run = i + 1 in
        push run 0.0 Obs.Flight.Stage 0.0 ("replay:" ^ profile);
        List.iter (fun (t, v) -> push run t Obs.Flight.Bif v "") bif)
      entries;
    Obs.Flight.make_dump ~subject ~trigger:"replay" ~attempt:1 ~window_s:!span
      (List.rev !events)
  in
  let run target training proto noise seed log_level provenance_from prof out =
    Obs.Runtime.set_level log_level;
    let control = lazy (control_of training) in
    (* --prof profiles the work that produced the report (acquiring the
       control, plus the replay or measurement) and embeds the waterfall;
       a plain dump file involves no instrumented work, so its profile is
       empty and the renderer omits the section. *)
    let profiled = ref None in
    let with_prof f =
      if not prof then f ()
      else begin
        let result, profile = Obs.Prof.record f in
        profiled := Some profile;
        result
      end
    in
    let output html =
      (match out with
      | None -> print_string html
      | Some path ->
        write_file path html;
        Printf.printf "report: %s\n" path);
      exit_ok
    in
    let emit ~dump ~provenance =
      output (Obs.Render.measurement_report ?provenance ?prof:!profiled ~dump ())
    in
    (* A file routes on its header's kind: pool traces to the scheduler
       report, any other kind to the flight-dump reader (whose envelope
       check names the kind it found), and kind-less JSON to golden
       fixture replay. *)
    let report_file text =
      let header =
        match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text
      in
      match Obs.Json.member "kind" (Obs.Json.of_string header) with
      | Some (Obs.Json.Str "pool_trace") ->
        output (Obs.Render.pool_report_html ~trace:(Obs.Pooltrace.of_string text) ())
      | Some _ ->
        let dump = Obs.Flight.dump_of_string text in
        let provenance =
          Option.map
            (fun path ->
              let reports = read_input path Obs.Provenance.read_jsonl in
              match
                List.find_opt
                  (fun (r : Obs.Provenance.report) ->
                    r.Obs.Provenance.subject = dump.Obs.Flight.subject)
                  reports
              with
              | Some r -> Some r
              | None ->
                note "nebby report: no provenance record matches subject %s\n"
                  dump.Obs.Flight.subject;
                (match reports with r :: _ -> Some r | [] -> None))
            provenance_from
        in
        emit ~dump ~provenance:(Option.join provenance)
      | None | (exception Obs.Json.Parse_error _) ->
        let fixture = Obs.Json.of_string text in
        if Obs.Json.member "traces" fixture = None then begin
          Printf.eprintf "nebby report: %s is neither a flight dump nor a golden fixture\n"
            target;
          exit_usage
        end
        else begin
          let cca, entries = fixture_entries fixture in
          let provenance =
            with_prof (fun () ->
                snd
                  (Nebby.Measurement.explain_prepared ~control:(Lazy.force control)
                     ~subject:cca entries))
          in
          emit ~dump:(dump_of_entries ~subject:cca entries) ~provenance:(Some provenance)
        end
    in
    with_inputs ~cmd:"report" (fun () ->
        if Sys.file_exists target then
          read_input target (fun path -> report_file (read_all path))
        else if List.mem target Cca.Registry.all then begin
          (* force a dump: every verdict is under a threshold of 2 *)
          let config = { Nebby.Measurement.default_config with flight_confidence = 2.0 } in
          let report =
            with_prof (fun () ->
                let control = Lazy.force control in
                let plugins = Nebby.Classifier.extended_plugins control in
                Nebby.Measurement.measure_cca ~control ~plugins ~proto ~noise ~seed ~config
                  target)
          in
          match report.Nebby.Measurement.flight with
          | Some dump -> emit ~dump ~provenance:report.Nebby.Measurement.provenance
          | None ->
            Printf.eprintf
              "nebby report: measurement produced no flight dump (is the recorder \
               disabled?)\n";
            exit_internal
        end
        else begin
          Printf.eprintf
            "nebby report: %s is not a file, a flight dump, or a CCA registry name\n"
            target;
          exit_usage
        end)
  in
  let doc =
    "Render a self-contained HTML measurement report (BiF timeline with anomaly \
     annotations, cwnd overlay, frequency spectrum, candidate scores) from a flight dump, \
     a golden fixture, or a fresh measurement."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ target_arg $ golden_training_arg $ proto_arg $ noise_arg $ seed_arg
      $ log_level_arg
      $ provenance_from_arg $ prof_arg $ out_arg)

(* `campaign` fans one experiment across N seeds, streams per-seed
   records into a schema-versioned JSONL store, aggregates per-cell
   statistics into a deterministic summary JSON, renders the HTML
   dashboard, and evaluates the pass gates. The summary and dashboard
   are byte-identical for every worker count (check.sh diffs jobs=1
   against jobs=4); wall-clock values only enter through --bench-json,
   which is the same file either way. *)
let campaign_cmd =
  let experiment_arg =
    let doc = "Experiment to fan out: accuracy, census, or chaos." in
    Arg.(value & pos 0 string "accuracy" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_arg =
    let doc = "Per-seed result store (schema-versioned JSONL), written as seeds finish." in
    Arg.(value & opt string "campaign-runs.jsonl" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let summary_arg =
    let doc = "Aggregated summary JSON (cells, confusion, outliers, gate results)." in
    Arg.(value & opt string "campaign-summary.json" & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let html_arg =
    let doc = "Self-contained HTML dashboard." in
    Arg.(value & opt string "campaign-dashboard.html" & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let from_arg =
    let doc =
      "Skip measuring: aggregate an existing store (as written by --out) instead. The \
       store's own experiment tag wins over $(i,EXPERIMENT)."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"STORE" ~doc)
  in
  let bench_json_arg =
    let doc =
      "Bench ledger (bench --json output) feeding the wall-clock gates — census \
       throughput floor and flight/provenance overhead ceilings. Without it those gates \
       are skipped, keeping the campaign outputs free of this host's wall clock."
    in
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE" ~doc)
  in
  let no_gates_arg =
    Arg.(
      value & flag
      & info [ "no-gates" ]
          ~doc:"Evaluate no pass gates: aggregate, render, and exit 0 regardless.")
  in
  let pool_trace_file_arg =
    let doc =
      "Embed the pool scheduler section (timeline SVG, wait/run histograms) from this \
       saved task trace (as written by $(b,census --pool-trace)) into the dashboard. \
       Wall-clock content: the determinism diff in check.sh runs without it."
    in
    Arg.(value & opt (some string) None & info [ "pool-trace" ] ~docv:"FILE" ~doc)
  in
  let drift_store_arg =
    let doc =
      "Embed the deployment-drift section (stacked share-over-epochs chart plus \
       change-point events, see $(b,nebby drift)) from this serve journal store into \
       the dashboard."
    in
    Arg.(value & opt (some string) None & info [ "drift-store" ] ~docv:"STORE" ~doc)
  in
  (* every numeric field of a bench ledger becomes a gate extra; the
     derived census_sites_per_s throughput joins them when the ledger
     predates the bench recording it directly *)
  let bench_extras path =
    let j = Obs.Json.of_string (read_all path) in
    let fields =
      match j with
      | Obs.Json.Obj kvs ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Obs.Json.to_float v))
          kvs
      | _ -> []
    in
    if List.mem_assoc "census_sites_per_s" fields then fields
    else
      match
        (List.assoc_opt "census_sites" fields, List.assoc_opt "census_parallel_s" fields)
      with
      | Some sites, Some secs when secs > 0.0 ->
        fields @ [ ("census_sites_per_s", sites /. secs) ]
      | _ -> fields
  in
  (* sparkline history: every committed BENCH_*.json in the working
     directory, in name order (BENCH_baseline.json, then dated ledgers) *)
  (* Ledgers are heterogeneous across schema generations: a metric
     missing from (or null in) some BENCH_*.json simply contributes no
     point there, and a metric absent everywhere gets no sparkline at
     all — unknown keys in old or new ledgers are never an error. *)
  let trend_metrics =
    [
      "census_parallel_s"; "census_flight_overhead_frac"; "census_provenance_overhead_frac";
      "census_trace_overhead_frac"; "pool_queue_wait_p99_us"; "pool_steal_frac";
      "pool_busy_frac_mean"; "serve_alert_overhead_frac";
    ]
  in
  let trend_series () =
    let files =
      Sys.readdir "." |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    let ledgers =
      List.filter_map
        (fun f ->
          match Obs.Json.of_string (read_all f) with
          | j -> Some (f, j)
          | exception _ -> None)
        files
    in
    List.filter_map
      (fun metric ->
        let pts =
          List.filter_map
            (fun (f, j) ->
              Option.map
                (fun v -> (Filename.remove_extension f, v))
                (Option.bind (Obs.Json.member metric j) Obs.Json.to_float))
            ledgers
        in
        if pts = [] then None else Some (metric, pts))
      trend_metrics
  in
  let run experiment seed count seed_list jobs training sites region proto log_level out
      summary_path html_path from bench_json no_gates pool_trace_file drift_store =
    Obs.Runtime.set_level log_level;
    with_inputs ~cmd:"campaign" (fun () ->
      match Internet.Campaign_runner.experiment_of_name experiment with
      | Error msg when from = None ->
        Printf.eprintf "nebby campaign: %s\n" msg;
        exit_usage
      | experiment_result -> (
        match resolve_seed_spec ~cmd:"campaign" ?count ?seed_list ~base:seed () with
        | None -> exit_usage
        | Some seeds ->
          let experiment_tag, seed_runs =
            match from with
            | Some store ->
              let tag, stored = read_input store Obs.Campaign.read_store in
              note "nebby campaign: aggregating %d stored run(s) from %s\n"
                (List.length stored) store;
              (tag, stored)
            | None ->
              let experiment =
                match experiment_result with Ok e -> e | Error _ -> assert false
              in
              let control = control_of training in
              let oc = open_out out in
              let stored =
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    Obs.Campaign.write_header oc
                      ~experiment:(Internet.Campaign_runner.experiment_name experiment)
                      ~runs:(List.length seeds);
                    Internet.Campaign_runner.run ~jobs:(resolve_jobs jobs)
                      ~emit:(fun i r ->
                        Obs.Campaign.write_seed_line oc r;
                        flush oc;
                        note "nebby campaign: seed %d done (%d/%d)\n"
                          r.Obs.Campaign.seed (i + 1) (List.length seeds))
                      ~sites ~proto ~region ~control experiment ~seeds)
              in
              (Internet.Campaign_runner.experiment_name experiment, stored)
          in
          let summary = Obs.Campaign.aggregate ~experiment:experiment_tag seed_runs in
          let extra =
            match bench_json with None -> [] | Some path -> read_input path bench_extras
          in
          let gates =
            if no_gates then []
            else
              match Internet.Campaign_runner.experiment_of_name experiment_tag with
              | Ok e -> Internet.Campaign_runner.default_gates e
              | Error _ -> []
          in
          let results = Obs.Gate.evaluate gates (Obs.Campaign.lookup ~extra summary) in
          write_file summary_path
            (Obs.Json.to_string (Obs.Campaign.summary_to_json ~gates:results summary)
            ^ "\n");
          let pool = Option.map read_pool_trace pool_trace_file in
          let drift =
            Option.map
              (fun store ->
                let ledger = read_ledger store in
                (ledger, Obs.Drift.detect ledger))
              drift_store
          in
          write_file html_path
            (Obs.Render.campaign_dashboard ?pool ?drift ~trend:(trend_series ())
               ~gates:results ~summary ());
          print_string (Obs.Campaign.render ~gates:results summary);
          if from = None then Printf.printf "\nstore     : %s\n" out
          else Printf.printf "\nstore     : %s (aggregated)\n"
                 (Option.value ~default:out from);
          Printf.printf "summary   : %s\ndashboard : %s\n" summary_path html_path;
          if Obs.Gate.passed results then exit_ok
          else begin
            let failed =
              List.filter_map
                (fun (r : Obs.Gate.result) ->
                  if r.status = Obs.Gate.Fail then Some r.gate.name else None)
                results
            in
            Printf.eprintf "nebby campaign: %d gate(s) failed: %s\n" (List.length failed)
              (String.concat ", " failed);
            exit_unclassified
          end))
  in
  let doc =
    "Fan an experiment across many seeds, aggregate per-cell statistics (mean, stddev, \
     95% CI), render the HTML dashboard, and evaluate pass gates (non-zero exit on any \
     failure)."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ experiment_arg $ seed_arg $ seeds_count_arg $ seed_list_arg $ jobs_arg
      $ training_arg 10
      $ sites_arg ~doc:"Census population size per seed." 80
      $ region_arg ~doc:"Vantage point." $ proto_arg $ log_level_arg
      $ out_arg $ summary_arg $ html_arg $ from_arg $ bench_json_arg $ no_gates_arg
      $ pool_trace_file_arg $ drift_store_arg)

let serve_cmd =
  let epochs_arg =
    Arg.(
      value & opt int 2
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "Census epochs to run or resume: epoch 0 measures every site, later epochs \
             re-measure only decayed verdicts.")
  in
  let store_arg =
    Arg.(
      value
      & opt string "nebby-serve.journal"
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Durable journal the service commits to and resumes from; safe to reuse \
             across runs and kills.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-measurement wall-clock deadline for the watchdog; overruns are retried \
             on the timeout budget, then committed as unknown. 0 disables the watchdog \
             (and keeps the store bit-deterministic).")
  in
  let high_water_arg =
    Arg.(
      value & opt int 256
      & info [ "high-water" ] ~docv:"N"
          ~doc:
            "Job-queue depth bound; admission past it is refused (backpressure) and the \
             scheduler drains a batch before retrying.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"N" ~doc:"Jobs measured per parallel drain of the queue.")
  in
  let max_entries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "Bound the journal's in-memory read cache to $(docv) records (evicted \
             records are re-read and re-checksummed from disk); default unbounded.")
  in
  let confidence_floor_arg =
    Arg.(
      value & opt float 0.9
      & info [ "confidence-floor" ] ~docv:"X"
          ~doc:"Verdicts below this confidence decay and are re-measured next epoch.")
  in
  let margin_floor_arg =
    Arg.(
      value & opt float 2.0
      & info [ "margin-floor" ] ~docv:"X"
          ~doc:"Verdicts below this winning margin decay and are re-measured next epoch.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-commits" ] ~docv:"N"
          ~doc:
            "Crash injection for recovery testing: SIGKILL this process after the Nth \
             journal commit.")
  in
  let compact_only_arg =
    Arg.(
      value & flag
      & info [ "compact-only" ]
          ~doc:"Only compact the store canonically (idempotent) and exit; no measuring.")
  in
  let status_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-file" ] ~docv:"FILE"
          ~doc:
            "Live health surface: atomically rewrite $(docv) (JSON snapshot) and \
             $(docv).prom (Prometheus text exposition) after every batch; read it while \
             the daemon runs with $(b,nebby stats --live) $(docv).")
  in
  let migrate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "migrate" ] ~docv:"FROM:TO:ONSET:RATE"
          ~doc:
            "Time-varying ground truth: from epoch $(i,ONSET) on, convert sites from CCA \
             $(i,FROM) to $(i,TO) at $(i,RATE) weight points per epoch (e.g. \
             cubic:bbr:2:4). Pair with $(b,--confidence-floor) > 1 so every epoch \
             re-measures; the delta census otherwise carries stable verdicts forward and \
             hides the movement.")
  in
  let alerts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts" ] ~docv:"RULES.json"
          ~doc:
            "Evaluate these alert rules each epoch (schema-versioned JSON; see \
             EXPERIMENTS.md). Firing rules surface as nebby_alert gauges in the status \
             exposition and as transitions in $(b,--alert-log).")
  in
  let alert_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alert-log" ] ~docv:"FILE"
          ~doc:
            "Write the JSONL alert-transition log here (one fire/resolve edge per line, \
             deduplicated while a breach persists). Implies the built-in default rules \
             when $(b,--alerts) is not given.")
  in
  let run sites region proto seed training jobs epochs store deadline high_water batch
      max_entries confidence_floor margin_floor kill compact_only status_file migrate
      alerts alert_log telemetry log_level =
    Obs.Runtime.set_level log_level;
    with_inputs ~cmd:"serve" @@ fun () ->
    if compact_only then begin
      let live = read_input store (fun store -> Serve.Service.compact_store ~store) in
      Printf.printf "compacted  : %s (%d live record(s))\n" store live;
      exit_ok
    end
    else
      let migration =
        match migrate with
        | None -> None
        | Some spec -> (
          match Internet.Population.migration_of_spec spec with
          | Some m -> Some m
          | None ->
            Printf.eprintf
              "nebby serve: bad --migrate spec %S (expected FROM:TO:ONSET:RATE, e.g. \
               cubic:bbr:2:4)\n"
              spec;
            exit exit_usage)
      in
      let alert_rules =
        match alerts with
        | Some path -> read_input path Serve.Alerts.load_rules
        | None -> if alert_log <> None then Serve.Alerts.default_rules else []
      in
      let control = control_of training in
      let config =
        {
          Serve.Service.sites;
          seed;
          region;
          proto;
          jobs = resolve_jobs jobs;
          epochs = max 1 epochs;
          deadline_s = (if deadline <= 0.0 then infinity else deadline);
          high_water;
          batch;
          max_entries;
          confidence_floor;
          margin_floor;
          kill_after_commits = kill;
          status_file;
          migration;
          alert_rules;
          alert_log;
        }
      in
      let summary =
        read_input store (fun store ->
            Obs.Telemetry.record ?jsonl:telemetry (fun () ->
                Serve.Service.run ~control ~config ~store))
      in
      Printf.printf "store      : %s\n" store;
      Printf.printf "epochs     : %d over %d site(s) (%s, %s)\n" config.epochs sites
        (Internet.Region.name region)
        (match proto with Netsim.Packet.Tcp -> "tcp" | Netsim.Packet.Quic -> "quic");
      Printf.printf "measured   : %d\n" summary.Serve.Service.measured;
      Printf.printf "recovered  : %d\n" summary.recovered;
      Printf.printf "carried    : %d\n" summary.carried;
      Printf.printf "timeouts   : %d\n" summary.timeouts;
      Printf.printf "overloads  : %d\n" summary.overloads;
      Printf.printf "torn tail  : %d record(s) dropped\n" summary.torn_dropped;
      Printf.printf "snapshots  : %d\n" summary.snapshots;
      Option.iter
        (fun m ->
          Printf.printf "migration  : %s\n" (Internet.Population.migration_spec m))
        migration;
      if alert_rules <> [] then begin
        Printf.printf "drift evts : %d\n" summary.drift_events;
        Printf.printf "alerts     : %d fired (%d rule(s) armed)\n"
          summary.alerts_fired (List.length alert_rules);
        Option.iter (Printf.printf "alert log  : %s\n") alert_log
      end
      else Printf.printf "drift evts : %d\n" summary.drift_events;
      Option.iter (Printf.printf "status     : %s (+ .prom)\n") status_file;
      Option.iter (Printf.printf "telemetry  : %s\n") telemetry;
      exit_ok
  in
  let doc =
    "Run the crash-safe continuous census: measure the population onto a durable \
     journal, recover already-committed verdicts after a kill, and re-measure only \
     decayed verdicts in later epochs."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ sites_arg ~doc:"Number of websites to keep fresh." 24
      $ region_arg ~doc:"Vantage point." $ proto_arg $ seed_arg $ training_arg 10
      $ jobs_arg $ epochs_arg $ store_arg $ deadline_arg $ high_water_arg $ batch_arg
      $ max_entries_arg $ confidence_floor_arg $ margin_floor_arg $ kill_arg
      $ compact_only_arg $ status_file_arg $ migrate_arg $ alerts_arg $ alert_log_arg
      $ telemetry_arg $ log_level_arg)

let drift_cmd =
  let store_pos_arg =
    let doc = "Serve journal store to analyze (as written by $(b,nebby serve --store))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)
  in
  let out_arg =
    let doc = "Write the schema-versioned drift-ledger JSON here." in
    Arg.(value & opt string "nebby-drift.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let html_arg =
    let doc =
      "Self-contained HTML drift dashboard (stacked share-over-epochs chart, \
       change-point annotations, alert timeline, historical census context)."
    in
    Arg.(value & opt string "nebby-drift.html" & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let rules_arg =
    let doc =
      "Replay these alert rules offline over the ledger (same engine the serve daemon \
       runs each epoch; epoch-ledger and drift signals only — the live health signals \
       read 0 offline). Any rule firing makes the command exit 1."
    in
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"RULES.json" ~doc)
  in
  let alert_log_arg =
    let doc =
      "Embed this JSONL alert-transition log (as written by $(b,serve --alert-log)) \
       into the dashboard's alert timeline instead of replaying rules."
    in
    Arg.(value & opt (some string) None & info [ "alert-log" ] ~docv:"FILE" ~doc)
  in
  let alert_out_arg =
    let doc = "With $(b,--rules): also write the replayed transitions as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "alert-out" ] ~docv:"FILE" ~doc)
  in
  let run store out html_path rules alert_log alert_out =
    with_inputs ~cmd:"drift" @@ fun () ->
      let ledger = read_ledger store in
      let events = Obs.Drift.detect ledger in
      write_file out (Obs.Json.to_string (Obs.Drift.to_json ledger) ^ "\n");
      (* alert timeline: a saved serve log wins; otherwise replay rules
         offline, per epoch, exactly as the daemon would have *)
      let transitions =
        match (alert_log, rules) with
        | Some path, _ ->
          read_input path (fun path ->
              String.split_on_char '\n' (read_all path)
              |> List.filter_map (fun l ->
                     if l = "" then None
                     else Some (Serve.Alerts.transition_of_json (Obs.Json.of_string l))))
        | None, Some path ->
          let engine = Serve.Alerts.create (read_input path Serve.Alerts.load_rules) in
          List.concat_map
            (fun (p : Obs.Drift.point) ->
              let epoch = p.Obs.Drift.epoch in
              let at_epoch =
                List.filter (fun e -> Obs.Drift.event_epoch e = epoch) events
              in
              Serve.Alerts.evaluate engine ~epoch
                ~signal_value:
                  (Serve.Alerts.signal_values ~point:p ~events:at_epoch ()))
            ledger.Obs.Drift.points
        | None, None -> []
      in
      (match (alert_out, rules) with
      | Some path, Some _ ->
        write_file path
          (String.concat ""
             (List.map
                (fun tr ->
                  Obs.Json.to_string (Serve.Alerts.transition_to_json tr) ^ "\n")
                transitions))
      | _ -> ());
      let alerts =
        List.map
          (fun (tr : Serve.Alerts.transition) ->
            ( tr.Serve.Alerts.epoch,
              tr.Serve.Alerts.rule,
              (match tr.Serve.Alerts.action with
              | Serve.Alerts.Fire -> `Fire
              | Serve.Alerts.Resolve -> `Resolve),
              tr.Serve.Alerts.value,
              tr.Serve.Alerts.limit ))
          transitions
      in
      let historical =
        List.map
          (fun (s : Internet.Census_history.snapshot) ->
            (s.Internet.Census_history.study, s.Internet.Census_history.year,
             s.Internet.Census_history.shares))
          Internet.Census_history.historical
      in
      write_file html_path (Obs.Render.drift_dashboard ~historical ~alerts ~ledger ~events ());
      print_string (Obs.Drift.render ledger events);
      Printf.printf "\nledger    : %s\ndashboard : %s\n" out html_path;
      Option.iter
        (fun p -> if rules <> None then Printf.printf "alert log : %s\n" p)
        alert_out;
      let fires =
        List.filter (fun t -> t.Serve.Alerts.action = Serve.Alerts.Fire) transitions
      in
      if rules <> None && fires <> [] then begin
        Printf.eprintf "nebby drift: %d alert rule(s) fired: %s\n" (List.length fires)
          (String.concat ", "
             (List.sort_uniq compare (List.map (fun t -> t.Serve.Alerts.rule) fires)));
        exit_unclassified
      end
      else exit_ok
  in
  let doc =
    "Deployment-drift observatory: fold a serve store's per-epoch verdicts into a \
     schema-versioned drift ledger, run change-point detection (per-class CUSUM on \
     share deltas), render the HTML dashboard, and optionally replay alert rules \
     offline (exit 1 if any fire)."
  in
  Cmd.v (Cmd.info "drift" ~doc)
    Term.(
      const run $ store_pos_arg $ out_arg $ html_arg $ rules_arg $ alert_log_arg
      $ alert_out_arg)

let stats_cmd =
  let file_arg =
    let doc =
      Printf.sprintf
        "Telemetry JSONL file to summarize (as written by $(b,measure --telemetry)). \
         Defaults to %s; when no file exists, one fresh instrumented run is profiled \
         instead."
        default_telemetry_file
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let live_arg =
    let doc =
      "Render the live health snapshot a running $(b,nebby serve --status-file) daemon \
       maintains at $(docv) (safe to read mid-run: writes are atomic)."
    in
    Arg.(value & opt (some string) None & info [ "live" ] ~docv:"FILE" ~doc)
  in
  let pool_arg =
    let doc =
      "Render the pool scheduler report from a task trace written by \
       $(b,census --pool-trace)."
    in
    Arg.(value & opt (some string) None & info [ "pool" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "With $(b,--pool): also export the trace as Chrome trace_event JSON to $(docv) \
       (load it in about://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)
  in
  let drift_arg =
    let doc =
      "Render the drift-ledger text view of a serve store (epoch table plus \
       change-point events; the full dashboard is $(b,nebby drift))."
    in
    Arg.(value & opt (some string) None & info [ "drift" ] ~docv:"STORE" ~doc)
  in
  let run file live pool chrome drift =
    with_inputs ~cmd:"stats" @@ fun () ->
    match (live, pool, drift) with
    | _, _, Some store ->
      let ledger = read_ledger store in
      print_string (Obs.Drift.render ledger (Obs.Drift.detect ledger));
      exit_ok
    | Some status_path, _, None ->
      print_string (Serve.Health.render (read_input status_path Serve.Health.read));
      exit_ok
    | None, Some trace_path, None ->
      let trace = read_pool_trace trace_path in
      print_string (Obs.Pooltrace.report trace);
      Option.iter
        (fun out ->
          write_file out (Obs.Pooltrace.to_chrome_string trace);
          Printf.printf "\nchrome trace: %s\n" out)
        chrome;
      exit_ok
    | None, None, None -> (
      let path =
        match file with
        | Some f -> Some f
        | None ->
          if Sys.file_exists default_telemetry_file then Some default_telemetry_file
          else None
      in
      match path with
      | Some p ->
        let summary = read_input p Obs.Telemetry.read_summary in
        Printf.printf "telemetry summary of %s\n\n%s" p
          (Obs.Telemetry.render_summary summary);
        exit_ok
      | None ->
        (* nothing recorded yet: profile live runs so the metrics table is
           never empty. The work goes through the pool with task tracing
           on, so one command summarizes every obs subsystem — metrics,
           flight recorder, scheduler, histograms, profiler. *)
        Printf.printf
          "no telemetry file found; profiling fresh runs (cubic, tcp, mild noise, seed \
           42, 2 pool tasks)\n\n";
        let (), prof_profile =
          Obs.Prof.record (fun () ->
              Obs.Runtime.with_armed (fun () ->
                  Obs.Flight.clear ();
                  Obs.Flight.set_enabled true;
                  Obs.Pooltrace.set_enabled true;
                  Fun.protect
                    ~finally:(fun () ->
                      Obs.Flight.set_enabled false;
                      Obs.Pooltrace.set_enabled false)
                    (fun () ->
                      ignore
                        (Engine.Pool.map_list ~jobs:2
                           (fun profile ->
                             let result =
                               Nebby.Testbed.run ~seed:42 ~noise:Netsim.Path.mild ~profile
                                 ~make_cca:(Cca.Registry.create "cubic") ()
                             in
                             ignore (Nebby.Measurement.prepare_result ~profile result))
                           [ Nebby.Profile.delay_50ms; Nebby.Profile.delay_100ms ]))))
        in
        print_string (Obs.Metrics.render (Obs.Metrics.snapshot ()));
        let flight_events = Obs.Flight.events () in
        let kind_counts =
          List.fold_left
            (fun acc (e : Obs.Flight.event) ->
              let k = Obs.Flight.kind_label e.Obs.Flight.kind in
              (k, 1 + Option.value ~default:0 (List.assoc_opt k acc))
              :: List.remove_assoc k acc)
            [] flight_events
          |> List.sort compare
        in
        Printf.printf "\nflight recorder (%d events buffered)\n" (List.length flight_events);
        List.iter (fun (k, n) -> Printf.printf "  %-30s %10d\n" k n) kind_counts;
        Obs.Flight.clear ();
        let trace = Obs.Pooltrace.drain () in
        let s = Obs.Pooltrace.summarize trace in
        Printf.printf "\npool scheduler\n";
        Printf.printf "  %-30s %10d\n" "tasks run" s.Obs.Pooltrace.s_tasks;
        Printf.printf "  %-30s %10d\n" "steals" s.Obs.Pooltrace.s_steals;
        Printf.printf "  %-30s %10d\n" "local pops"
          (s.Obs.Pooltrace.s_tasks - s.Obs.Pooltrace.s_steals);
        Printf.printf "  %-30s %10.0f\n" "queue wait p99 (us)"
          (Obs.Histogram.quantile s.Obs.Pooltrace.s_wait_us 0.99);
        let hists = Obs.Histogram.all () in
        if hists <> [] then begin
          Printf.printf "\nlatency histograms\n";
          print_string (Obs.Histogram.render hists)
        end;
        Obs.Histogram.reset ();
        Printf.printf "\nprofiler spans\n";
        print_string (Obs.Prof.render prof_profile);
        exit_ok)
  in
  let doc =
    "Summarize the obs subsystems: a telemetry file, a live serve health snapshot \
     ($(b,--live)), a pool scheduler trace ($(b,--pool)), a serve store's drift ledger \
     ($(b,--drift)), or a fresh instrumented run (metrics, flight-recorder event \
     counts, pool/histogram counters, profiler spans)."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ file_arg $ live_arg $ pool_arg $ chrome_arg $ drift_arg)

let () =
  let doc = "Nebby: congestion control identification from BiF traces (simulated testbed)" in
  let info = Cmd.info "nebby" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        measure_cmd; trace_cmd; census_cmd; explain_cmd; report_cmd; accuracy_cmd;
        chaos_cmd; fuzz_cmd; campaign_cmd; serve_cmd; drift_cmd; stats_cmd;
      ]
  in
  let code =
    match Cmd.eval_value ~catch:false group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_internal
    | exception e ->
      Printf.eprintf "nebby: internal error: %s\n" (Printexc.to_string e);
      exit_internal
  in
  exit code
