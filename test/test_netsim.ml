(* Unit and property tests for the discrete-event network simulator. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Netsim.Rng.create 42 and b = Netsim.Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Netsim.Rng.float a) (Netsim.Rng.float b)
  done

let test_rng_split_independent () =
  let a = Netsim.Rng.create 42 in
  let b = Netsim.Rng.split a in
  let xs = List.init 50 (fun _ -> Netsim.Rng.float a) in
  let ys = List.init 50 (fun _ -> Netsim.Rng.float b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_uniform_range () =
  let rng = Netsim.Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Netsim.Rng.uniform rng 2.0 5.0 in
    Alcotest.(check bool) "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_gaussian_moments () =
  let rng = Netsim.Rng.create 11 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Netsim.Rng.gaussian rng ~mean:3.0 ~std:2.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n
  in
  Alcotest.(check bool) "mean ~ 3" true (Float.abs (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "std ~ 2" true (Float.abs (sqrt var -. 2.0) < 0.1)

let test_rng_bool_bias () =
  let rng = Netsim.Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Netsim.Rng.bool rng 0.25 then incr hits
  done;
  Alcotest.(check bool) "p ~ 0.25" true (abs (!hits - 2500) < 300)

(* ---- Event queue ---- *)

let test_queue_ordering () =
  let q = Netsim.Event_queue.create () in
  List.iter (fun t -> Netsim.Event_queue.push q ~time:t t) [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let rec drain acc =
    match Netsim.Event_queue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list (float 0.0))) "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ] (drain [])

let test_queue_fifo_ties () =
  let q = Netsim.Event_queue.create () in
  List.iter (fun v -> Netsim.Event_queue.push q ~time:1.0 v) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Netsim.Event_queue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] (drain [])

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Netsim.Event_queue.create () in
      List.iter (fun t -> Netsim.Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match Netsim.Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* Equal-time events leave in push order even when pushes interleave with
   pops and the heap grows past its initial capacity of 16: each pop must
   match a reference model that removes the least (time, push index). *)
let prop_queue_fifo_across_growth =
  QCheck.Test.make ~name:"event queue: equal times pop in push order across growth"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 17 300) (int_range (-1) 3))
    (fun ops ->
      let q = Netsim.Event_queue.create () in
      let model = ref [] in
      let pushed = ref 0 in
      let pop_ok () =
        match List.sort compare !model with
        | [] -> Netsim.Event_queue.is_empty q
        | ((time, idx) as least) :: _ ->
          model := List.filter (( <> ) least) !model;
          Netsim.Event_queue.min_time q = time && Netsim.Event_queue.pop_exn q = idx
      in
      List.for_all
        (fun op ->
          if op < 0 then pop_ok ()
          else begin
            let time = float_of_int op in
            Netsim.Event_queue.push q ~time !pushed;
            model := (time, !pushed) :: !model;
            incr pushed;
            Netsim.Event_queue.length q = List.length !model
          end)
        ops
      && List.for_all (fun _ -> pop_ok ()) !model
      && Netsim.Event_queue.is_empty q)

(* ---- Sim ---- *)

let test_sim_ordering () =
  let sim = Netsim.Sim.create () in
  let log = ref [] in
  Netsim.Sim.at sim 2.0 (fun () -> log := 2 :: !log);
  Netsim.Sim.at sim 1.0 (fun () -> log := 1 :: !log);
  Netsim.Sim.after sim 3.0 (fun () -> log := 3 :: !log);
  Netsim.Sim.run sim;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Netsim.Sim.now sim)

let test_sim_horizon () =
  let sim = Netsim.Sim.create () in
  let fired = ref false in
  Netsim.Sim.at sim 10.0 (fun () -> fired := true);
  Netsim.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "beyond horizon not fired" false !fired;
  check_float "clock advanced to horizon" 5.0 (Netsim.Sim.now sim)

let test_sim_no_past_scheduling () =
  let sim = Netsim.Sim.create () in
  Netsim.Sim.at sim 1.0 (fun () ->
      Alcotest.check_raises "past raises" (Invalid_argument "x") (fun () ->
          try Netsim.Sim.at sim 0.5 (fun () -> ()) with Invalid_argument _ ->
            raise (Invalid_argument "x")));
  Netsim.Sim.run sim

let test_sim_cascading () =
  let sim = Netsim.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Netsim.Sim.after sim 0.1 tick
  in
  Netsim.Sim.after sim 0.1 tick;
  Netsim.Sim.run sim;
  Alcotest.(check int) "10 ticks" 10 !count;
  Alcotest.(check bool) "clock ~ 1.0" true (Float.abs (Netsim.Sim.now sim -. 1.0) < 1e-6)

(* ---- Link ---- *)

let mk_data ?(size = 1000) seq now =
  Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq ~payload:(size - 40) ~retx:false ~now

let test_link_serialization () =
  let sim = Netsim.Sim.create () in
  let deliveries = ref [] in
  let link =
    Netsim.Link.create sim ~rate:10_000.0 ~buffer_bytes:1_000_000
      ~sink:(fun pkt -> deliveries := (Netsim.Sim.now sim, pkt.Netsim.Packet.seq) :: !deliveries)
      ()
  in
  (* two back-to-back 1000 B packets at 10 kB/s: 0.1 s each *)
  Netsim.Link.send link (mk_data 0 0.0);
  Netsim.Link.send link (mk_data 1000 0.0);
  Netsim.Sim.run sim;
  match List.rev !deliveries with
  | [ (t1, _); (t2, _) ] ->
    check_float "first serialized" 0.1 t1;
    check_float "second queued behind" 0.2 t2
  | _ -> Alcotest.fail "expected 2 deliveries"

let test_link_extra_delay () =
  let sim = Netsim.Sim.create () in
  let at = ref 0.0 in
  let link =
    Netsim.Link.create sim ~rate:10_000.0 ~buffer_bytes:1_000_000 ~extra_delay:0.5
      ~sink:(fun _ -> at := Netsim.Sim.now sim)
      ()
  in
  Netsim.Link.send link (mk_data 0 0.0);
  Netsim.Sim.run sim;
  check_float "serialization + delay" 0.6 !at

let test_link_droptail () =
  let sim = Netsim.Sim.create () in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create sim ~rate:10_000.0 ~buffer_bytes:2_500 ~sink:(fun _ -> incr delivered) ()
  in
  (* 1 in service + 2 queued fit; the rest overflow the 2.5 kB buffer *)
  for i = 0 to 9 do
    Netsim.Link.send link (mk_data (i * 1000) 0.0)
  done;
  Netsim.Sim.run sim;
  Alcotest.(check int) "drops" 7 (Netsim.Link.drops link);
  Alcotest.(check int) "delivered" 3 !delivered

(* ---- Path ---- *)

let test_path_preserves_order () =
  let sim = Netsim.Sim.create () in
  let rng = Netsim.Rng.create 3 in
  let seen = ref [] in
  let path =
    Netsim.Path.create sim rng ~delay:0.05 ~noise:Netsim.Path.heavy
      ~sink:(fun pkt -> seen := pkt.Netsim.Packet.seq :: !seen)
  in
  for i = 0 to 199 do
    Netsim.Sim.at sim (float_of_int i *. 0.001) (fun () ->
        Netsim.Path.send path (mk_data i (float_of_int i *. 0.001)))
  done;
  Netsim.Sim.run sim;
  let received = List.rev !seen in
  Alcotest.(check bool) "order preserved under jitter" true
    (received = List.sort compare received)

let test_path_quiet_no_loss () =
  let sim = Netsim.Sim.create () in
  let rng = Netsim.Rng.create 3 in
  let n = ref 0 in
  let path = Netsim.Path.create sim rng ~delay:0.01 ~noise:Netsim.Path.quiet ~sink:(fun _ -> incr n) in
  for i = 0 to 99 do
    Netsim.Path.send path (mk_data i 0.0)
  done;
  Netsim.Sim.run sim;
  Alcotest.(check int) "all delivered" 100 !n

let test_path_drops_under_loss () =
  let sim = Netsim.Sim.create () in
  let rng = Netsim.Rng.create 3 in
  let n = ref 0 in
  let noise = { Netsim.Path.quiet with drop_prob = 0.5 } in
  let path = Netsim.Path.create sim rng ~delay:0.01 ~noise ~sink:(fun _ -> incr n) in
  for i = 0 to 999 do
    Netsim.Path.send path (mk_data i 0.0)
  done;
  Netsim.Sim.run sim;
  Alcotest.(check bool) "roughly half dropped" true (!n > 350 && !n < 650);
  Alcotest.(check int) "drop counter consistent" 1000 (!n + Netsim.Path.dropped path)

(* ---- Trace ---- *)

let test_trace_quic_opaque () =
  let trace = Netsim.Trace.create () in
  let pkt = Netsim.Packet.data Netsim.Packet.Quic ~id:0 ~seq:100 ~payload:200 ~retx:false ~now:1.0 in
  Netsim.Trace.record trace ~now:1.0 pkt;
  match Netsim.Trace.observations trace with
  | [ obs ] ->
    (match obs.Netsim.Trace.view with
    | Netsim.Trace.Opaque -> ()
    | Netsim.Trace.Tcp_view _ -> Alcotest.fail "QUIC must be opaque")
  | _ -> Alcotest.fail "one observation expected"

let test_trace_tcp_visible () =
  let trace = Netsim.Trace.create () in
  let pkt = Netsim.Packet.data Netsim.Packet.Tcp ~id:0 ~seq:100 ~payload:200 ~retx:false ~now:1.0 in
  Netsim.Trace.record trace ~now:1.0 pkt;
  match Netsim.Trace.observations trace with
  | [ { view = Netsim.Trace.Tcp_view { seq; payload; _ }; _ } ] ->
    Alcotest.(check int) "seq" 100 seq;
    Alcotest.(check int) "payload" 200 payload
  | _ -> Alcotest.fail "tcp view expected"

let suite =
  [
    Alcotest.test_case "rng is deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split yields independent stream" `Quick test_rng_split_independent;
    Alcotest.test_case "rng uniform stays in range" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng gaussian has right moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng bool respects bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "event queue pops in time order" `Quick test_queue_ordering;
    Alcotest.test_case "event queue breaks ties FIFO" `Quick test_queue_fifo_ties;
    QCheck_alcotest.to_alcotest prop_queue_sorted;
    QCheck_alcotest.to_alcotest prop_queue_fifo_across_growth;
    Alcotest.test_case "sim executes events in order" `Quick test_sim_ordering;
    Alcotest.test_case "sim respects the run horizon" `Quick test_sim_horizon;
    Alcotest.test_case "sim rejects scheduling in the past" `Quick test_sim_no_past_scheduling;
    Alcotest.test_case "sim handles cascading events" `Quick test_sim_cascading;
    Alcotest.test_case "link serializes at the configured rate" `Quick test_link_serialization;
    Alcotest.test_case "link applies the extra one-way delay" `Quick test_link_extra_delay;
    Alcotest.test_case "link drops on buffer overflow" `Quick test_link_droptail;
    Alcotest.test_case "path never reorders despite jitter" `Quick test_path_preserves_order;
    Alcotest.test_case "quiet path delivers everything" `Quick test_path_quiet_no_loss;
    Alcotest.test_case "lossy path drops at the configured rate" `Quick test_path_drops_under_loss;
    Alcotest.test_case "trace hides QUIC contents" `Quick test_trace_quic_opaque;
    Alcotest.test_case "trace exposes TCP headers" `Quick test_trace_tcp_visible;
  ]
