type worker = { install : unit -> unit; drain : unit -> unit -> unit }
type t = unit -> worker

let make ~capture ~install ~drain ~absorb () =
  let parent = capture () in
  {
    install = (fun () -> install parent);
    drain =
      (fun () ->
        let buffer = drain parent in
        fun () -> absorb buffer);
  }

let runtime =
  make
    ~capture:(fun () -> (Runtime.armed (), Runtime.level ()))
    ~install:(fun (armed, level) ->
      if armed then Runtime.arm ();
      Runtime.set_level level)
    ~drain:ignore ~absorb:ignore

let metrics =
  make ~capture:ignore ~install:ignore ~drain:Metrics.drain ~absorb:Metrics.absorb

let prof =
  make ~capture:Prof.profiling
    ~install:(fun on -> if on then Prof.enable ())
    ~drain:(fun on -> if on then Prof.drain () else [])
    ~absorb:Prof.absorb

let provenance =
  make ~capture:Provenance.collecting
    ~install:(fun on -> if on then Provenance.enable_collect ())
    ~drain:(fun on -> if on then Provenance.drain_reports () else [])
    ~absorb:Provenance.absorb_reports

let flight =
  make ~capture:Flight.enabled ~install:Flight.set_enabled
    ~drain:(fun _ -> Flight.drain ())
    ~absorb:Flight.absorb

(* workers inherit the trace origin, so every stamp shares one timebase *)
let pooltrace =
  make
    ~capture:(fun () -> if Pooltrace.enabled () then Some (Pooltrace.origin ()) else None)
    ~install:(Option.iter (fun origin -> Pooltrace.import ~origin))
    ~drain:(fun _ -> Pooltrace.drain_tasks ())
    ~absorb:Pooltrace.absorb_tasks

let histogram =
  make ~capture:ignore ~install:ignore ~drain:Histogram.drain ~absorb:Histogram.absorb

let all = [ runtime; metrics; prof; provenance; flight; pooltrace; histogram ]

let task_probe ~jobs ~workers =
  if not (Pooltrace.enabled ()) then None
  else
    let t_submit = Pooltrace.on_run ~jobs ~workers in
    Some
      (fun ~index ~worker ~stolen ~t0 ~t1 ->
        Pooltrace.record ~index ~shard:(index mod workers) ~worker ~stolen ~t_submit ~t0
          ~t1)

let count_run ~jobs ~workers ~steals =
  if Runtime.armed () then
    List.iter
      (fun (name, n) -> Metrics.add (Metrics.counter name) n)
      [
        ("engine.pool.jobs", jobs);
        ("engine.pool.workers", workers);
        ("engine.pool.steals", steals);
        ("engine.pool.local_pops", jobs - steals);
      ]
