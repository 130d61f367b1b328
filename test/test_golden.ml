(* Golden-trace regression suite.

   Each fixture in golden/ (written by tools/gen_golden.ml) is the
   packet-level capture of one measurement per network profile at a pinned
   seed, plus the feature vector and label the pipeline derived when the
   fixture was generated. Replaying the serialized capture through
   Bif -> Pipeline -> Features -> Classifier and comparing against the
   stored expectations pins the numerics of the whole classification path:
   any change that moves a feature dimension by more than 1e-9, or flips a
   label, fails here before it can silently shift census results.

   When the drift is intentional, regenerate with

     dune exec tools/gen_golden.exe

   and review the fixture diff alongside the code change. *)

(* Pinned fixture configuration - keep in sync with tools/gen_golden.ml. *)
let golden_seed = 7
let training_runs_per_cca = 4
let training_quic_runs_per_cca = 2

let tolerance = 1e-9

(* dune copies golden/ into the test sandbox (see test/dune), so the
   fixtures sit next to the executable; fall back to the source path when
   run from the repo root outside dune. *)
let golden_dir =
  match List.find_opt Sys.file_exists [ "golden"; "test/golden" ] with
  | Some d -> d
  | None -> Alcotest.fail "golden fixture directory not found (run tools/gen_golden.exe)"

(* The control is retrained at the fixtures' pinned configuration rather
   than serialized with them: label equality then also pins the
   determinism of training itself. *)
let control =
  lazy
    (Controls.get ~runs:training_runs_per_cca ~quic_runs:training_quic_runs_per_cca
       ~seed:golden_seed)

let jfloat j = match Obs.Json.to_float j with
  | Some x -> x
  | None -> Alcotest.fail "fixture: expected a number"

let jstr j = match Obs.Json.to_str j with
  | Some s -> s
  | None -> Alcotest.fail "fixture: expected a string"

let jlist j = match Obs.Json.to_list j with
  | Some l -> l
  | None -> Alcotest.fail "fixture: expected an array"

let jmember key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "fixture: missing field %S" key)

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
      | _ -> Alcotest.fail "fixture: observation has neither 3 nor 7 fields"
    in
    { Netsim.Trace.time = jfloat time; dir; size = int_of_float (jfloat size); view }
  | _ -> Alcotest.fail "fixture: observation too short"

let load_fixture cca =
  let path = Filename.concat golden_dir (cca ^ ".json") in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Obs.Json.of_string s

let check_vector ~cca ~profile expected got =
  match (expected, got) with
  | Obs.Json.Null, None -> ()
  | Obs.Json.Null, Some _ ->
    Alcotest.fail
      (Printf.sprintf "%s/%s: fixture expects no feature vector but replay produced one" cca
         profile)
  | _, None ->
    Alcotest.fail
      (Printf.sprintf "%s/%s: replay produced no feature vector but fixture has one" cca
         profile)
  | expected, Some v ->
    let exp = Array.of_list (List.map jfloat (jlist expected)) in
    Alcotest.(check int)
      (Printf.sprintf "%s/%s: vector dimensions" cca profile)
      (Array.length exp) (Array.length v);
    Array.iteri
      (fun i e ->
        if Float.abs (e -. v.(i)) > tolerance then
          Alcotest.fail
            (Printf.sprintf "%s/%s: feature dim %d drifted: expected %.17g, got %.17g" cca
               profile i e v.(i)))
      exp

let replay_fixture cca () =
  let fixture = load_fixture cca in
  Alcotest.(check string) "fixture names its CCA" cca (jstr (jmember "cca" fixture));
  Alcotest.(check int) "fixture seed is the pinned seed" golden_seed
    (int_of_float (jfloat (jmember "seed" fixture)));
  let prepared =
    List.map
      (fun t ->
        let profile = jstr (jmember "profile" t) in
        let rtt = jfloat (jmember "rtt" t) in
        let obs = List.map obs_of_json (jlist (jmember "obs" t)) in
        let trace = Netsim.Trace.of_observations obs in
        let prep = Nebby.Pipeline.prepare ~rtt (Nebby.Bif.estimate trace) in
        check_vector ~cca ~profile (jmember "vector" t) (Nebby.Features.trace_vector prep);
        (profile, prep))
      (jlist (jmember "traces" fixture))
  in
  let outcome, _ =
    Nebby.Classifier.classify_measurement ~control:(Lazy.force control) prepared
  in
  Alcotest.(check string)
    (Printf.sprintf "%s: label stable under replay" cca)
    (jstr (jmember "expected_label" fixture))
    (Nebby.Classifier.outcome_label outcome)

(* every registered CCA must have a fixture: adding a CCA without
   regenerating the suite is itself a regression *)
let test_coverage () =
  let missing =
    List.filter
      (fun cca -> not (Sys.file_exists (Filename.concat golden_dir (cca ^ ".json"))))
      Cca.Registry.all
  in
  if missing <> [] then
    Alcotest.fail
      (Printf.sprintf "no golden fixture for: %s (run tools/gen_golden.exe)"
         (String.concat ", " missing))

let suite =
  Alcotest.test_case "every registered CCA has a fixture" `Quick test_coverage
  :: List.map
       (fun cca -> Alcotest.test_case (Printf.sprintf "replay %s" cca) `Quick (replay_fixture cca))
       Cca.Registry.all
