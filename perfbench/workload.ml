(* The three benchmark workloads: how each is set up, run, traced and
   checked. README.md says why each workload exists and which layer each
   metric belongs to. *)

let now = Spans.now

type kind = Census_tcp | Census_quic | Serve_delta

let kinds = [ ("census-tcp", Census_tcp); ("census-quic", Census_quic); ("serve-delta", Serve_delta) ]
let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

type plan = {
  kind : kind;
  seed : int;
  sites : int;
  jobs : int;
  delta_epochs : int;  (** serve-delta: epochs added by the resumed run *)
  proto : Netsim.Packet.proto;
  region : Internet.Region.t;
  work_dir : string;  (** where serve-delta keeps its journals *)
}

let nproc () = Domain.recommended_domain_count ()

(* The CLI's default [--training-runs]. *)
let training_runs = 10

(* Sites per second of [--seconds] on a 2-vCPU host, so the timed phase
   lasts about that long while the work stays a fixed function of the
   arguments: every metric that is a count repeats exactly for a seed. *)
let plan ?sites ~work_dir kind ~seed ~seconds =
  let parallel = max 1 (min 2 (nproc ())) in
  let per_s, jobs, proto =
    match kind with
    | Census_tcp -> (24, 1, Netsim.Packet.Tcp)
    | Census_quic -> (250, parallel, Netsim.Packet.Quic)
    | Serve_delta -> (16, parallel, Netsim.Packet.Tcp)
  in
  {
    kind;
    seed;
    sites = (match sites with Some n -> n | None -> per_s * seconds);
    jobs;
    delta_epochs = 2;
    proto;
    region = Internet.Region.Ohio;
    work_dir;
  }

(* {1 Set-up} *)

type setup = {
  control : Nebby.Training.control;
  websites : Internet.Website.t list;
  train_s : float;
  generate_s : float;
}

(* Exactly what [nebby census] does before its first measurement. *)
let setup plan =
  let t0 = now () in
  let control = Nebby.Training.train ~runs_per_cca:training_runs () in
  let t1 = now () in
  let websites = Internet.Population.generate ~n:plan.sites ~seed:plan.seed () in
  { control; websites; train_s = t1 -. t0; generate_s = now () -. t1 }

(* {1 Verdicts} *)

let truth plan (site : Internet.Website.t) =
  match plan.proto with
  | Netsim.Packet.Tcp -> Internet.Website.cca_in site plan.region
  | Netsim.Packet.Quic ->
    if site.Internet.Website.quic then
      Option.value ~default:"cubic" site.Internet.Website.quic_cca
    else "unresponsive"

let share p labels =
  if labels = [||] then 0.0
  else
    float_of_int (Array.fold_left (fun n l -> if p l then n + 1 else n) 0 labels)
    /. float_of_int (Array.length labels)

let accuracy plan websites labels =
  let truths = Array.of_list (List.map (truth plan) websites) in
  if Array.length truths <> Array.length labels then 0.0
  else
    share (fun (l, t) -> l = t) (Array.map2 (fun l t -> (l, t)) labels truths)

let unknown_frac labels = share (String.equal "unknown") labels

let valid_label l =
  Cca.Registry.mem l || List.mem l [ "unknown"; "unresponsive"; "bbr3" ]

let measure plan control site =
  Internet.Census.measure_site ~control ~proto:plan.proto ~region:plan.region site

(* Up to [k] population indices spread evenly over the sites that are
   simulated (over QUIC, only the responders are). *)
let sample ?(k = 8) plan websites =
  let eligible =
    List.mapi (fun i s -> (i, s)) websites
    |> List.filter (fun (_, s) -> plan.proto = Netsim.Packet.Tcp || s.Internet.Website.quic)
  in
  let n = List.length eligible in
  let picks = List.init (min k n) (fun j -> j * n / max 1 (min k n)) in
  List.filteri (fun j _ -> List.mem j picks) eligible

(* {1 serve-delta's store} *)

let store_path plan =
  Filename.concat plan.work_dir (Printf.sprintf "%s-%d.journal" (name plan.kind) plan.seed)

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".compact" ]

(* Service keys every verdict "e<epoch>|" ^ Census.cache_key. *)
let verdict_key plan ~control ~epoch site =
  Printf.sprintf "e%d|%s" epoch
    (Internet.Census.cache_key ~control ~proto:plan.proto ~region:plan.region site)

let value_label v =
  match Obs.Json.of_string v with
  | exception Obs.Json.Parse_error _ -> "unparsable"
  | j -> Option.value ~default:"unparsable" (Option.bind (Obs.Json.member "label" j) Obs.Json.to_str)

let serve_config plan ~epochs =
  {
    Serve.Service.default_config with
    sites = plan.sites;
    seed = plan.seed;
    region = plan.region;
    proto = plan.proto;
    jobs = plan.jobs;
    epochs;
  }

(* {1 Running a workload} *)

type serve_run = {
  first : Serve.Service.summary;  (** epochs = 1: the full epoch-0 census *)
  resumed : Serve.Service.summary;  (** recovers epoch 0, adds the delta epochs *)
  resumed_s : float;
}

type outcome = {
  labels : string array;  (** epoch-0 verdicts in population order *)
  phase_s : float;  (** the census, or serve's epoch-0 run *)
  serve : serve_run option;
}

(* Wraps serve-delta's top-level calls so the traced run can time them. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

let run ?(wrap = untimed) plan st =
  let span = wrap.span in
  match plan.kind with
  | Census_tcp | Census_quic ->
    let t0 = now () in
    let labeled =
      Internet.Census.labels ~jobs:plan.jobs ~control:st.control ~proto:plan.proto
        ~region:plan.region st.websites
    in
    { labels = Array.of_list (List.map snd labeled); phase_s = now () -. t0; serve = None }
  | Serve_delta ->
    let store = store_path plan in
    remove_store store;
    let serve epochs () =
      Serve.Service.run ~control:st.control ~config:(serve_config plan ~epochs) ~store
    in
    let t0 = now () in
    let first = span "serve.run" (serve 1) in
    let t1 = now () in
    let resumed = span "serve.run" (serve (1 + plan.delta_epochs)) in
    let resumed_s = now () -. t1 in
    let journal = span "journal.replay" (fun () -> Engine.Journal.open_ store) in
    let labels =
      Array.of_list
        (List.map
           (fun site ->
             match Engine.Journal.find journal (verdict_key plan ~control:st.control ~epoch:0 site) with
             | Some v -> value_label v
             | None -> "missing")
           st.websites)
    in
    Engine.Journal.close journal;
    { labels; phase_s = t1 -. t0; serve = Some { first; resumed; resumed_s } }

(* Every check a run must pass; each failed one is one message. *)
let check plan st outcome =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let n = List.length st.websites in
  if Array.length outcome.labels <> n then
    fail "%d verdicts for %d sites" (Array.length outcome.labels) n
  else begin
    Array.iteri
      (fun i l -> if not (valid_label l) then fail "site %d: label %S not in the registry" i l)
      outcome.labels;
    List.iter
      (fun (i, site) ->
        let again = measure plan st.control site in
        if again <> outcome.labels.(i) then
          fail "site %d: serial re-measure gave %s, the run gave %s" i again outcome.labels.(i))
      (sample plan st.websites)
  end;
  (match outcome.serve with
  | None -> ()
  | Some s ->
    let epochs = 1 + plan.delta_epochs in
    let journal = Engine.Journal.open_ ~on_warning:ignore (store_path plan) in
    let verdicts =
      List.length
        (List.filter
           (fun k -> Serve.Observatory.epoch_of_key k <> None)
           (Engine.Journal.keys journal))
    in
    if verdicts <> n * epochs then fail "store holds %d verdicts, expected %d" verdicts (n * epochs);
    if Engine.Journal.length journal <> (n + 1) * epochs then
      fail "store holds %d records, expected %d verdicts + %d snapshots"
        (Engine.Journal.length journal) (n * epochs) epochs;
    if Engine.Journal.torn_dropped journal <> 0 then
      fail "replay dropped %d torn records" (Engine.Journal.torn_dropped journal);
    Engine.Journal.close journal;
    if s.first.measured <> n then fail "epoch 0 measured %d of %d sites" s.first.measured n;
    if s.resumed.recovered <> n then fail "resume recovered %d of %d verdicts" s.resumed.recovered n;
    if s.resumed.measured + s.resumed.carried <> n * plan.delta_epochs then
      fail "delta epochs measured %d + carried %d, expected %d" s.resumed.measured
        s.resumed.carried (n * plan.delta_epochs);
    if s.first.timeouts + s.resumed.timeouts <> 0 then fail "watchdog timeouts");
  List.rev !fails

(* {1 The traced run} *)

(* Per-site counts from the public [Obs.Events] hook. *)
type counts = {
  mutable attempts : int;
  mutable failed_attempts : int;
  mutable sim_runs : int;
  mutable sim_events : int;
  mutable drops : int;
  mutable retransmits : int;
  mutable acks : int;
  mutable segments : int;
  mutable votes : int;
}

let zero () =
  { attempts = 0; failed_attempts = 0; sim_runs = 0; sim_events = 0; drops = 0;
    retransmits = 0; acks = 0; segments = 0; votes = 0 }

let add_counts a b =
  a.attempts <- a.attempts + b.attempts;
  a.failed_attempts <- a.failed_attempts + b.failed_attempts;
  a.sim_runs <- a.sim_runs + b.sim_runs;
  a.sim_events <- a.sim_events + b.sim_events;
  a.drops <- a.drops + b.drops;
  a.retransmits <- a.retransmits + b.retransmits;
  a.acks <- a.acks + b.acks;
  a.segments <- a.segments + b.segments;
  a.votes <- a.votes + b.votes

type site_trace = {
  label : string;
  domain : int;
  t_start : float;
  t_end : float;
  attempt_starts : float list;
  stages : (string * float * float) list;  (** Obs.Span simulate/prepare/classify *)
  counts : counts;
}

(* One site under both hooks. Events and spans are domain-local, so the
   hooks are installed in whichever domain runs the site. *)
let traced_site f site =
  let c = zero () and starts = ref [] and stages = ref [] in
  let events =
    Obs.Events.on (function
      | Obs.Events.Attempt_started _ ->
        starts := now () :: !starts;
        c.attempts <- c.attempts + 1
      | Obs.Events.Attempt_failed _ -> c.failed_attempts <- c.failed_attempts + 1
      | Obs.Events.Sim_run_complete { events; _ } ->
        c.sim_runs <- c.sim_runs + 1;
        c.sim_events <- c.sim_events + events
      | Obs.Events.Packet_dropped _ -> c.drops <- c.drops + 1
      | Obs.Events.Retransmit _ -> c.retransmits <- c.retransmits + 1
      | Obs.Events.Cwnd_update _ -> c.acks <- c.acks + 1
      | Obs.Events.Segment_produced _ -> c.segments <- c.segments + 1
      | Obs.Events.Classifier_vote _ -> c.votes <- c.votes + 1
      | _ -> ())
  in
  let spans =
    Obs.Span.on_complete (fun (s : Obs.Span.completed) ->
        match s.name with
        | "simulate" | "prepare" | "classify" ->
          stages := (s.name, s.wall_start, s.wall_stop) :: !stages
        | _ -> ())
  in
  let t_start = now () in
  let label =
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.off spans;
        Obs.Events.off events)
      (fun () -> f site)
  in
  { label; domain = (Domain.self () :> int); t_start; t_end = now ();
    attempt_starts = List.rev !starts; stages = List.rev !stages; counts = c }

(* A site's stage spans for the waterfall. Simulate and classify come
   straight from Obs.Span; prepare runs from an attempt's last simulate
   to its first classify, so it covers Bif.estimate as well as
   Pipeline.prepare. *)
let stage_spans (t : site_trace) =
  let bounds = t.attempt_starts @ [ t.t_end ] in
  let rec windows = function a :: (b :: _ as rest) -> (a, b) :: windows rest | _ -> [] in
  let windows = match windows bounds with [] -> [ (t.t_start, t.t_end) ] | w -> w in
  let named n = List.filter (fun (m, _, _) -> m = n) t.stages in
  let sims = named "simulate" and classifies = named "classify" in
  let prepares =
    List.filter_map
      (fun (a, b) ->
        let inside = List.filter (fun (_, s, e) -> s >= a && e <= b) in
        match (inside sims, inside classifies, inside (named "prepare")) with
        | [], _, _ -> None
        | ss, cs, ps ->
          let from = List.fold_left (fun m (_, _, e) -> Float.max m e) neg_infinity ss in
          let until =
            match cs with
            | [] -> List.fold_left (fun m (_, _, e) -> Float.max m e) from ps
            | cs -> List.fold_left (fun m (_, s, _) -> Float.min m s) infinity cs
          in
          if until > from then Some ("prepare", from, until) else None)
      windows
  in
  sims @ prepares @ classifies

type traced = {
  spans : Spans.t;
  root : int;
  wall_s : float;
  sites : site_trace list;  (** census workloads: every site of the phase *)
  waits : float list;  (** pool queue wait per task, seconds *)
  lanes : int;
  pool_s : float;  (** wall time inside pool calls *)
}

(* The census phase again, as the benchmark's own Pool.map over
   Census.measure_site (what Census.labels runs) with both hooks on. *)
let trace_census plan st =
  let rec_ = Spans.create () in
  let main = (Domain.self () :> int) in
  let t0 = now () in
  let root = Spans.fresh rec_ in
  let pool = Spans.fresh rec_ in
  let call = now () in
  let traces =
    Engine.Pool.map ~jobs:plan.jobs
      (traced_site (measure plan st.control))
      (Array.of_list st.websites)
  in
  let call_end = now () in
  ignore (Spans.add rec_ ~id:pool ~parent:root ~lane:main ~name:"pool" call call_end);
  Array.iteri
    (fun i t ->
      let lane = t.domain in
      let site = Spans.add rec_ ~parent:pool ~site:i ~lane ~name:"site" t.t_start t.t_end in
      List.iter
        (fun (name, a, b) -> ignore (Spans.add rec_ ~parent:site ~site:i ~lane ~name a b))
        (stage_spans t))
    traces;
  let t1 = now () in
  ignore (Spans.add rec_ ~id:root ~lane:main ~name:"phase" t0 t1);
  {
    spans = rec_;
    root;
    wall_s = t1 -. t0;
    sites = Array.to_list traces;
    waits = Array.to_list (Array.map (fun t -> t.t_start -. call) traces);
    lanes = List.length (List.sort_uniq compare (Array.to_list (Array.map (fun t -> t.domain) traces)));
    pool_s = call_end -. call;
  }

(* serve-delta under Obs.Pooltrace: Service.run's pool tasks come back
   with their submit/start/finish stamps. *)
let trace_serve plan st =
  let rec_ = Spans.create () in
  let t0 = now () in
  let root = Spans.fresh rec_ in
  let origin = now () in
  Obs.Pooltrace.import ~origin;
  let outcome =
    Fun.protect
      ~finally:(fun () -> Obs.Pooltrace.set_enabled false)
      (fun () ->
        run plan st
          ~wrap:{ span = (fun name f -> Spans.within rec_ ~parent:root ~name f) })
  in
  let trace = Obs.Pooltrace.drain () in
  let t1 = now () in
  ignore (Spans.add rec_ ~id:root ~lane:0 ~name:"phase" t0 t1);
  let runs = List.filter (fun s -> s.Spans.name = "serve.run") (Spans.spans rec_) in
  let by_submit = Hashtbl.create 64 in
  List.iter
    (fun (t : Obs.Pooltrace.task) ->
      Hashtbl.replace by_submit t.t_submit
        (t :: Option.value ~default:[] (Hashtbl.find_opt by_submit t.t_submit)))
    trace.Obs.Pooltrace.tasks;
  let pool_s = ref 0.0 in
  Hashtbl.iter
    (fun submit tasks ->
      let a = origin +. submit in
      let b = List.fold_left (fun m (t : Obs.Pooltrace.task) -> Float.max m (origin +. t.t_finish)) a tasks in
      pool_s := !pool_s +. (b -. a);
      let parent =
        match List.find_opt (fun s -> s.Spans.t0 <= a && a <= s.Spans.t1) runs with
        | Some s -> s.Spans.id
        | None -> root
      in
      let batch = Spans.add rec_ ~parent ~lane:0 ~name:"pool" a b in
      List.iter
        (fun (t : Obs.Pooltrace.task) ->
          ignore
            (Spans.add rec_ ~parent:batch ~lane:(1 + t.worker) ~name:"site"
               (origin +. t.t_start) (origin +. t.t_finish)))
        tasks)
    by_submit;
  let tasks = trace.Obs.Pooltrace.tasks in
  ( {
      spans = rec_;
      root;
      wall_s = t1 -. t0;
      sites = [];
      waits = List.map (fun (t : Obs.Pooltrace.task) -> t.t_start -. t.t_submit) tasks;
      lanes = max 1 trace.Obs.Pooltrace.workers;
      pool_s = !pool_s;
    },
    outcome )

(* Words allocated by this domain; read only while no other domain runs. *)
let allocated () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* {1 Metrics} *)

type metric = { metric : string; value : float; unit_ : string }

let m metric unit_ value = { metric; value; unit_ }
let per n x = if n = 0 then 0.0 else x /. float_of_int n
let ms x = 1000.0 *. x

(* Waterfall rows: span name -> the per-layer metric its time lands in. *)
let rows =
  [ ("pool", "pool.self_s"); ("site", "measurement.self_s"); ("simulate", "netsim.simulate_s");
    ("prepare", "pipeline.prepare_s"); ("classify", "classifier.classify_s");
    ("serve.run", "serve.self_s"); ("journal.replay", "journal.self_s") ]

(* The rows, the wall time and the unattributed share; fails unless the
   rows and the unattributed time add up to the wall time. *)
let waterfall (tr : traced) =
  let spans = Spans.spans tr.spans in
  let root = List.find (fun s -> s.Spans.id = tr.root) spans in
  let by_name, own = Spans.attribute ~root spans in
  let total row =
    List.fold_left
      (fun acc (name, secs) -> if List.assoc_opt name rows = Some row then acc +. secs else acc)
      0.0 by_name
  in
  let rows = List.map (fun row -> m row "s" (total row)) (List.sort_uniq compare (List.map snd rows)) in
  let sum = List.fold_left (fun acc r -> acc +. r.value) own rows in
  let failures =
    if Float.abs (sum -. tr.wall_s) <= 1e-9 *. Float.max 1.0 tr.wall_s then []
    else [ Printf.sprintf "waterfall rows add up to %.6f s of %.6f s" sum tr.wall_s ]
  in
  ( rows
    @ [ m "waterfall.wall_s" "s" tr.wall_s;
        m "waterfall.unattributed_frac" "ratio" (if tr.wall_s > 0.0 then own /. tr.wall_s else 0.0) ],
    failures )

let site_counts traces =
  let c = zero () in
  List.iter (fun t -> add_counts c t.counts) traces;
  let n = List.length traces in
  let sim_s =
    List.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc (name, a, b) -> if name = "simulate" then acc +. (b -. a) else acc)
          acc t.stages)
      0.0 traces
  in
  let per_site x = per n (float_of_int x) in
  [ m "measurement.attempts_per_site" "count" (per_site c.attempts);
    m "measurement.failed_attempt_frac" "ratio" (per c.attempts (float_of_int c.failed_attempts));
    m "netsim.runs" "count" (float_of_int c.sim_runs);
    m "netsim.sim_events_per_site" "count" (per_site c.sim_events);
    m "netsim.ns_per_sim_event" "ns" (1e9 *. per c.sim_events sim_s);
    m "netsim.drops_per_site" "count" (per_site c.drops);
    m "transport.retransmits_per_site" "count" (per_site c.retransmits);
    m "transport.acks_per_site" "count" (per_site c.acks);
    m "pipeline.segments_per_site" "count" (per_site c.segments);
    m "classifier.votes_per_site" "count" (per_site c.votes) ]

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let journal_metrics plan =
  let store = store_path plan in
  let bytes = float_of_int (Unix.stat store).Unix.st_size in
  let journal, replay_s = time (fun () -> Engine.Journal.open_ store) in
  let records = Engine.Journal.length journal in
  let scratch = store ^ ".puts" in
  remove_store scratch;
  let copy = Engine.Journal.open_ scratch in
  let puts =
    Engine.Journal.fold
      (fun key value acc -> snd (time (fun () -> Engine.Journal.put copy ~key ~value)) :: acc)
      journal []
  in
  Engine.Journal.close copy;
  remove_store scratch;
  let (), compact_s = time (fun () -> Engine.Journal.compact journal) in
  Engine.Journal.close journal;
  (float_of_int records, bytes, puts, replay_s, compact_s)

(* Words allocated by [f site], run in this domain while no other domain
   runs, so the counter sees only that site. *)
let alloc_words f site =
  let a0 = allocated () in
  ignore (f site);
  allocated () -. a0

let mean xs = per (List.length xs) (List.fold_left ( +. ) 0.0 xs)
let sum xs = List.fold_left ( +. ) 0.0 xs

type layered = {
  outcome : outcome;  (** the untraced phase *)
  failures : string list;
  metrics : metric list;
  spans : Spans.t;  (** the traced phase *)
}

(* The traced run: the phase once untraced (wall time, verdicts and the
   checks) and once under the hooks (waterfall and counts), then a serial
   pass over a fixed sample of 16 simulated sites for what a
   multi-domain phase cannot measure. *)
let per_layer plan st =
  let n = List.length st.websites in
  let sites = List.map snd (sample ~k:16 plan st.websites) in
  let per_site =
    match plan.kind with
    | Census_tcp | Census_quic -> measure plan st.control
    | Serve_delta ->
      fun site ->
        (Internet.Census.explain_site ~control:st.control ~proto:plan.proto
           ~region:plan.region site)
          .Nebby.Measurement.label
  in
  let outcome = run plan st in
  let failures = check plan st outcome in
  let untraced_s =
    outcome.phase_s +. match outcome.serve with Some s -> s.resumed_s | None -> 0.0
  in
  let tr, traced_labels, traced_s =
    match plan.kind with
    | Census_tcp | Census_quic ->
      let tr = trace_census plan st in
      (tr, Array.of_list (List.map (fun t -> t.label) tr.sites), tr.pool_s)
    | Serve_delta ->
      let tr, traced = trace_serve plan st in
      let runs =
        List.filter (fun sp -> sp.Spans.name = "serve.run") (Spans.spans tr.spans)
      in
      (tr, traced.labels, List.fold_left (fun acc sp -> acc +. Spans.duration sp) 0.0 runs)
  in
  let failures =
    if traced_labels = outcome.labels then failures
    else failures @ [ "traced verdicts differ from untraced" ]
  in
  let alloc_words = List.map (alloc_words per_site) sites in
  (* Serve measures in worker domains the hooks cannot reach: its
     per-site counts come from the sample, and provenance's cost is the
     sample's explain_site time less measure_site time. *)
  let counted =
    match plan.kind with
    | Serve_delta -> List.map (traced_site per_site) sites
    | Census_tcp | Census_quic -> tr.sites
  in
  let provenance_s =
    match plan.kind with
    | Serve_delta ->
      let seconds f site = snd (time (fun () -> ignore (f site))) in
      sum
        (List.mapi
           (fun j site ->
             (* alternate which runs first, so drift in the host's speed
                does not favour either *)
             if j mod 2 = 0 then
               let explained = seconds per_site site in
               explained -. seconds (measure plan st.control) site
             else
               let plain = seconds (measure plan st.control) site in
               seconds per_site site -. plain)
           sites)
    | Census_tcp | Census_quic -> 0.0
  in
  let task_s =
    List.filter_map
      (fun sp -> if sp.Spans.name = "site" then Some (Spans.duration sp) else None)
      (Spans.spans tr.spans)
  in
  let records, bytes, puts, replay_s, compact_s =
    match outcome.serve with Some _ -> journal_metrics plan | None -> (0.0, 0.0, [], 0.0, 0.0)
  in
  let serve_counts =
    match outcome.serve with
    | None -> (0.0, 0.0, 0.0, 0.0)
    | Some s ->
      ( float_of_int (s.first.measured + s.resumed.measured),
        float_of_int s.resumed.carried,
        per (n * plan.delta_epochs) (float_of_int s.resumed.measured),
        s.resumed_s /. float_of_int plan.delta_epochs )
  in
  let measured, carried, remeasured, delta_epoch_s = serve_counts in
  let waterfall, unreconciled = waterfall tr in
  { outcome; failures = failures @ unreconciled; spans = tr.spans;
    metrics =
      [ m "pool.tasks" "count" (float_of_int (List.length task_s));
        m "pool.queue_wait_ms_p50" "ms" (ms (Spans.quantile 0.5 tr.waits));
        m "pool.queue_wait_ms_p99" "ms" (ms (Spans.quantile 0.99 tr.waits));
        m "pool.busy_frac" "ratio" (sum task_s /. (float_of_int tr.lanes *. tr.pool_s));
        m "measurement.site_ms_p50" "ms" (ms (Spans.quantile 0.5 task_s));
        m "measurement.site_ms_p99" "ms" (ms (Spans.quantile 0.99 task_s));
        m "measurement.alloc_words_per_site" "words" (mean alloc_words);
        m "measurement.unknown_frac" "ratio" (unknown_frac outcome.labels);
        m "obs.provenance_s" "s" provenance_s;
        m "journal.records" "count" records;
        m "journal.bytes" "bytes" bytes;
        m "journal.put_us_p50" "us" (1e6 *. Spans.quantile 0.5 puts);
        m "journal.put_us_p99" "us" (1e6 *. Spans.quantile 0.99 puts);
        m "journal.replay_ms" "ms" (ms replay_s);
        m "journal.compact_ms" "ms" (ms compact_s);
        m "serve.measured" "count" measured;
        m "serve.carried" "count" carried;
        m "serve.remeasured_frac" "ratio" remeasured;
        m "serve.delta_epoch_s" "s" delta_epoch_s;
        m "trace.overhead_frac" "ratio" ((traced_s -. untraced_s) /. untraced_s) ]
      @ site_counts counted @ waterfall }
