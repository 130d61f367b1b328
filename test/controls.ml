(* Trained controls shared by the whole suite. Training is deterministic,
   so every test module that needs the control of one (runs, QUIC runs,
   seed) configuration can share a single instance: the table trains
   each configuration once per test process, on first use. Tests that
   assert on training-time events or metrics call [Training.train]
   directly instead. *)

let table : (int * int * int, Nebby.Training.control) Hashtbl.t = Hashtbl.create 8

let get ~runs ~quic_runs ~seed =
  let key = (runs, quic_runs, seed) in
  match Hashtbl.find_opt table key with
  | Some c -> c
  | None ->
    let c = Nebby.Training.train ~runs_per_cca:runs ~quic_runs_per_cca:quic_runs ~seed () in
    Hashtbl.add table key c;
    c
