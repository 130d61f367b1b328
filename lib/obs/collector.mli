(** Domain-local telemetry across a worker pool.

    Every Obs store keeps its state in the domain that records into it,
    so a pool run that fans work out to worker domains has to carry each
    store's settings out and each worker's buffer back. That is one
    protocol with one entry per store, walked by [Engine.Pool] in list
    order:

    + in the parent, before any worker spawns, the entry {e captures}
      the parent's settings (is it armed, profiling, collecting,
      tracing; at what level);
    + in each worker, before its first task, it {e installs} them;
    + after the worker's last task it {e drains} the worker's buffer
      into a closure, and the parent runs those closures after join,
      in worker order, so what the parent absorbs never depends on
      scheduling.

    The list is explicit rather than filled by registration at module
    initialisation, so link order cannot drop a store. *)

type worker = {
  install : unit -> unit;  (** worker domain, before its first task *)
  drain : unit -> unit -> unit;
      (** worker domain, after its last task; the returned closure runs
          in the parent and absorbs what was drained *)
}

type t = unit -> worker
(** One store's entry: called in the parent, it captures the parent's
    settings for one pool run. *)

val all : t list
(** Runtime arming and level, {!Metrics}, {!Prof}, {!Provenance},
    {!Flight}, {!Pooltrace} and {!Histogram}, in that order. *)

val task_probe :
  jobs:int ->
  workers:int ->
  (index:int -> worker:int -> stolen:bool -> t0:float -> t1:float -> unit) option
(** Parent side, at pool entry. When the calling domain traces pool
    tasks ({!Pooltrace.enabled}), opens the run in the trace (stamping
    its submit time) and returns the recorder for one finished task,
    given its absolute start and finish stamps; [None] otherwise, so an
    untraced run never reads the clock. *)

val count_run : jobs:int -> workers:int -> steals:int -> unit
(** Parent side, after join: add the pool's own [engine.pool.jobs],
    [engine.pool.workers], [engine.pool.steals] and
    [engine.pool.local_pops] counters when the calling domain is
    armed. *)
