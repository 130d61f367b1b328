type t = { mutable clock : float; queue : (unit -> unit) Event_queue.t }

let create () = { clock = 0.0; queue = Event_queue.create () }
let now t = t.clock

let at t time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling at %.9f before current time %.9f" time t.clock);
  Event_queue.push t.queue ~time f

let after t delay f = at t (t.clock +. delay) f

(* Fault realization computes absolute activation times from user-supplied
   plans; a time that already passed means "now", not a programming error. *)
let at_clamped t time f = at t (Float.max time t.clock) f

let run ?until t =
  let horizon = match until with None -> infinity | Some h -> h in
  let executed = ref 0 in
  let q = t.queue in
  let rec loop () =
    if not (Event_queue.is_empty q) then begin
      let time = Event_queue.min_time q in
      if not (time > horizon) then begin
        t.clock <- time;
        (Event_queue.pop_exn q) ();
        incr executed;
        loop ()
      end
    end
  in
  (* expose the virtual clock so spans opened inside simulated code also
     record virtual durations; restored on exit to tolerate nested sims *)
  let prev_clock = Obs.Runtime.virtual_clock () in
  Obs.Runtime.set_virtual_clock (Some (fun () -> t.clock));
  Fun.protect ~finally:(fun () -> Obs.Runtime.set_virtual_clock prev_clock) loop;
  (match until with
  | Some h when t.clock < h -> t.clock <- h
  | Some _ | None -> ());
  if Obs.Runtime.armed () then
    Obs.Metrics.add (Obs.Metrics.counter "netsim.sim.events") !executed;
  if Obs.Events.active () then
    Obs.Events.emit (Obs.Events.Sim_run_complete { events = !executed; clock = t.clock })

let pending t = Event_queue.length t.queue
