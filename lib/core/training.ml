type profile_model = {
  profile_name : string;
  model : Sigproc.Gnb.model;
  scaler : (float * float) array;
  thresholds : (string * float) list;
}

type bundle = {
  joint : Sigproc.Gnb.model;
  joint_scaler : (float * float) array;
  joint_thresholds : (string * float) list;
  per_profile : profile_model list;
}

type config = {
  runs_per_cca : int;
  quic_runs_per_cca : int;
  seed : int;
  profiles : Profile.t list;
  page_bytes : int;
}

type control = {
  profiles : Profile.t list;
  tcp : bundle;
  quic : bundle;
  samples : (string * float array list) list;
  degree_hist : (string * int array) list;
}

let vantage_count = 5
let tcp_threshold_slack = 3.0
(* QUIC implementations are expected to deviate from the kernel references
   (the paper classifies non-conformant variants too), so the likelihood
   floor is more forgiving *)
let quic_threshold_slack = 28.0
let gnb_var_floor = 0.02

(* Vantage points differ in how noisy the wide-area path is. *)
let vantage_noise i =
  match i mod vantage_count with
  | 0 -> Netsim.Path.quiet
  | 1 | 2 -> Netsim.Path.mild
  | 3 -> Netsim.Path.scale Netsim.Path.mild 1.5
  | _ -> Netsim.Path.scale Netsim.Path.mild 2.0

let percentile q xs =
  match xs with
  | [] -> neg_infinity
  | _ ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let idx = int_of_float (q *. float_of_int (Array.length arr - 1)) in
    arr.(idx)

let fit_scaler vectors =
  match vectors with
  | [] -> invalid_arg "Training.fit_scaler: no data"
  | first :: _ ->
    let dims = Array.length first in
    let nf = float_of_int (List.length vectors) in
    Array.init dims (fun i ->
        let mean = List.fold_left (fun a v -> a +. v.(i)) 0.0 vectors /. nf in
        let var =
          List.fold_left (fun a v -> a +. ((v.(i) -. mean) ** 2.0)) 0.0 vectors /. nf
        in
        (mean, Float.max 1e-6 (sqrt var)))

let apply_scaler scaler vec =
  Array.mapi
    (fun i x ->
      let mean, std = scaler.(i) in
      (x -. mean) /. std)
    vec

let bundle_for control proto =
  match proto with Netsim.Packet.Tcp -> control.tcp | Netsim.Packet.Quic -> control.quic

(* Fit model + scaler + per-class likelihood floors from labeled vectors. *)
let fit_model_bundle ?(slack = tcp_threshold_slack) labeled =
  let usable = List.filter (fun (_, vecs) -> List.length vecs >= 2) labeled in
  let scaler = fit_scaler (List.concat_map snd usable) in
  let standardized =
    List.map (fun (name, vecs) -> (name, List.map (apply_scaler scaler) vecs)) usable
  in
  let model = Sigproc.Gnb.fit ~var_floor:gnb_var_floor standardized in
  let thresholds =
    List.map
      (fun (name, vecs) ->
        let own =
          List.filter_map
            (fun v -> List.assoc_opt name (Sigproc.Gnb.log_likelihoods model v))
            vecs
        in
        (name, percentile 0.05 own -. slack))
      standardized
  in
  (model, scaler, thresholds)

type raw = {
  mutable joint_vecs : float array list;
  profile_vecs : float array list array;
}

let default_runs = 15
let default_quic_runs = 8
let default_seed = 7

let train ?(runs_per_cca = default_runs) ?(quic_runs_per_cca = default_quic_runs)
    ?(profiles = Profile.default_pair) ?(seed = default_seed)
    ?(page_bytes = Profile.default_page_bytes) ?(transform = fun ~rtt:_ pts -> pts) () =
  Obs.Span.with_ ~name:"train" @@ fun () ->
  (* For each CCA and run, measure under every profile with the same vantage
     noise; the concatenation of the per-profile trace vectors is the joint
     training sample, mirroring how a measurement runs both profiles. TCP
     and QUIC get separate models: the encrypted estimator shapes traces
     slightly differently (the refinement §5 of the paper suggests). *)
  let seg_samples = Hashtbl.create 16 in
  let degree_tally = Hashtbl.create 16 in
  let collect proto runs cca_name =
    let raw =
      { joint_vecs = []; profile_vecs = Array.make (List.length profiles) [] }
    in
    for run = 0 to runs - 1 do
      let noise = vantage_noise run in
      let per_profile =
        List.mapi
          (fun p_idx profile ->
            let proto_off = match proto with Netsim.Packet.Tcp -> 0 | Netsim.Packet.Quic -> 50000 in
            let run_seed =
              seed + proto_off + (1000 * p_idx) + (17 * run) + Hashtbl.hash cca_name
            in
            let result =
              Testbed.run ~seed:run_seed ~noise ~proto ~profile
                ~make_cca:(Cca.Registry.create cca_name) ~page_bytes ()
            in
            let rtt = Profile.rtt profile in
            let bif = transform ~rtt (Bif.estimate result.Testbed.trace) in
            let prepared = Pipeline.prepare ~rtt bif in
            if proto = Netsim.Packet.Tcp then
              List.iter
                (fun seg ->
                  match Features.of_segment seg with
                  | None -> ()
                  | Some f ->
                    let prev =
                      Option.value ~default:[] (Hashtbl.find_opt seg_samples cca_name)
                    in
                    Hashtbl.replace seg_samples cca_name
                      (Features.vector ~rtt:prepared.Pipeline.rtt f :: prev);
                    let hist =
                      match Hashtbl.find_opt degree_tally cca_name with
                      | Some h -> h
                      | None ->
                        let h = Array.make 3 0 in
                        Hashtbl.replace degree_tally cca_name h;
                        h
                    in
                    hist.(f.Features.degree - 1) <- hist.(f.Features.degree - 1) + 1)
                prepared.Pipeline.segments;
            Features.trace_vector prepared)
          profiles
      in
      List.iteri
        (fun p_idx v ->
          match v with
          | Some vec -> raw.profile_vecs.(p_idx) <- vec :: raw.profile_vecs.(p_idx)
          | None -> ())
        per_profile;
      if List.for_all Option.is_some per_profile then
        raw.joint_vecs <- Array.concat (List.map Option.get per_profile) :: raw.joint_vecs;
      if Obs.Runtime.armed () then Obs.Metrics.incr (Obs.Metrics.counter "training.runs");
      if Obs.Events.active () then
        Obs.Events.emit
          (Obs.Events.Training_run
             {
               cca = cca_name;
               proto = (match proto with Netsim.Packet.Tcp -> "tcp" | Netsim.Packet.Quic -> "quic");
               run;
             })
    done;
    raw
  in
  let build proto runs =
    let slack =
      match proto with
      | Netsim.Packet.Tcp -> tcp_threshold_slack
      | Netsim.Packet.Quic -> quic_threshold_slack
    in
    let per_cca = List.map (fun name -> (name, collect proto runs name)) Cca.Registry.loss_based in
    let joint, joint_scaler, joint_thresholds =
      fit_model_bundle ~slack (List.map (fun (name, raw) -> (name, raw.joint_vecs)) per_cca)
    in
    let per_profile =
      List.mapi
        (fun p_idx (profile : Profile.t) ->
          let labeled =
            List.map (fun (name, raw) -> (name, raw.profile_vecs.(p_idx))) per_cca
          in
          let model, scaler, thresholds = fit_model_bundle ~slack labeled in
          { profile_name = profile.Profile.name; model; scaler; thresholds })
        profiles
    in
    { joint; joint_scaler; joint_thresholds; per_profile }
  in
  let tcp = build Netsim.Packet.Tcp runs_per_cca in
  let quic = build Netsim.Packet.Quic quic_runs_per_cca in
  {
    profiles;
    tcp;
    quic;
    samples =
      List.map
        (fun name -> (name, List.rev (Option.value ~default:[] (Hashtbl.find_opt seg_samples name))))
        Cca.Registry.loss_based;
    degree_hist =
      List.map
        (fun name ->
          (name, Option.value ~default:(Array.make 3 0) (Hashtbl.find_opt degree_tally name)))
        Cca.Registry.loss_based;
  }

(* Training keeps only the classes with at least two vectors, so fewer
   than two runs per CCA leaves nothing to fit. *)
let config ?(runs_per_cca = default_runs) ?(quic_runs_per_cca = default_quic_runs)
    ?(profiles = Profile.default_pair) ?(seed = default_seed)
    ?(page_bytes = Profile.default_page_bytes) () =
  let too_few what n =
    Error (Printf.sprintf "%d %srun(s) per CCA cannot fit a model; need at least 2" n what)
  in
  if runs_per_cca < 2 then too_few "" runs_per_cca
  else if quic_runs_per_cca < 2 then too_few "QUIC " quic_runs_per_cca
  else if profiles = [] then Error "no network profile to train under"
  else if page_bytes <= 0 then
    Error (Printf.sprintf "page size %d must be positive" page_bytes)
  else Ok { runs_per_cca; quic_runs_per_cca; seed; profiles; page_bytes }

let train_config c =
  train ~runs_per_cca:c.runs_per_cca ~quic_runs_per_cca:c.quic_runs_per_cca
    ~profiles:c.profiles ~seed:c.seed ~page_bytes:c.page_bytes ()

(* ---- codec ---- *)

let schema_kind = "nebby_control"
let schema_version = 1

(* Floats travel as their IEEE-754 bit patterns, 16 lowercase hex digits
   each, and a float array as one string of such patterns: exact for
   every value (JSON numbers lose NaN and the infinities) and cheap to
   parse. *)
let hex_digits = "0123456789abcdef"

let floats_to_hex xs =
  let b = Bytes.create (16 * Array.length xs) in
  let put_word off w =
    for d = 0 to 7 do
      Bytes.unsafe_set b (off + d) hex_digits.[(w lsr (28 - (4 * d))) land 0xf]
    done
  in
  Array.iteri
    (fun i x ->
      let bits = Int64.bits_of_float x in
      put_word (16 * i) (Int64.to_int (Int64.shift_right_logical bits 32));
      put_word ((16 * i) + 8) (Int64.to_int bits land 0xffff_ffff))
    xs;
  Bytes.unsafe_to_string b

let codec_error fmt =
  Printf.ksprintf (fun msg -> raise (Obs.Json.Parse_error (schema_kind ^ ": " ^ msg))) fmt

let floats_of_hex s =
  let n = String.length s in
  if n mod 16 <> 0 then codec_error "float string of length %d" n;
  let word off =
    let w = ref 0 in
    for d = off to off + 7 do
      let v =
        match s.[d] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | c -> codec_error "bad hex digit %C" c
      in
      w := (!w lsl 4) lor v
    done;
    !w
  in
  Array.init (n / 16) (fun i ->
      Int64.float_of_bits
        (Int64.logor
           (Int64.shift_left (Int64.of_int (word (16 * i))) 32)
           (Int64.of_int (word ((16 * i) + 8)))))

let pairs_to_hex ps =
  floats_to_hex (Array.concat (List.map (fun (a, b) -> [| a; b |]) (Array.to_list ps)))

let pairs_of_hex s =
  let xs = floats_of_hex s in
  if Array.length xs mod 2 <> 0 then codec_error "odd scaler length";
  Array.init (Array.length xs / 2) (fun i -> (xs.(2 * i), xs.((2 * i) + 1)))

let config_key c =
  let profile (p : Profile.t) =
    Printf.sprintf "%s/%s/%d" p.Profile.name
      (floats_to_hex [| p.Profile.bandwidth; p.Profile.extra_delay; p.Profile.base_delay |])
      p.Profile.buffer_bytes
  in
  Printf.sprintf "runs=%d;quic_runs=%d;seed=%d;page_bytes=%d;profiles=%s" c.runs_per_cca
    c.quic_runs_per_cca c.seed c.page_bytes
    (String.concat "," (List.map profile c.profiles))

let to_json control =
  let open Obs.Json in
  let hex xs = Str (floats_to_hex xs) in
  let int n = Num (float_of_int n) in
  let labeled f xs = Arr (List.map (fun (name, x) -> Arr [ Str name; f x ]) xs) in
  let model m =
    Arr
      (List.map
         (fun (c : Sigproc.Gnb.class_model) ->
           Obj [ ("label", Str c.label); ("means", hex c.means); ("vars", hex c.vars) ])
         (Sigproc.Gnb.to_classes m))
  in
  let thresholds = labeled (fun x -> hex [| x |]) in
  let bundle b =
    Obj
      [
        ("joint", model b.joint);
        ("joint_scaler", Str (pairs_to_hex b.joint_scaler));
        ("joint_thresholds", thresholds b.joint_thresholds);
        ( "per_profile",
          Arr
            (List.map
               (fun pm ->
                 Obj
                   [
                     ("profile", Str pm.profile_name);
                     ("model", model pm.model);
                     ("scaler", Str (pairs_to_hex pm.scaler));
                     ("thresholds", thresholds pm.thresholds);
                   ])
               b.per_profile) );
      ]
  in
  let profile (p : Profile.t) =
    Obj
      [
        ("name", Str p.Profile.name);
        ("bandwidth", hex [| p.Profile.bandwidth |]);
        ("extra_delay", hex [| p.Profile.extra_delay |]);
        ("base_delay", hex [| p.Profile.base_delay |]);
        ("buffer_bytes", int p.Profile.buffer_bytes);
      ]
  in
  Obs.Envelope.obj ~kind:schema_kind ~version:schema_version
    [
      ("profiles", Arr (List.map profile control.profiles));
      ("tcp", bundle control.tcp);
      ("quic", bundle control.quic);
      ("samples", labeled (fun vecs -> Arr (List.map hex vecs)) control.samples);
      ( "degree_hist",
        labeled (fun h -> Arr (Array.to_list (Array.map int h))) control.degree_hist );
    ]

let of_json j =
  let open Obs.Json in
  Obs.Envelope.check ~kind:schema_kind ~version:schema_version j;
  let field key j =
    match member key j with Some v -> v | None -> codec_error "missing field %S" key
  in
  let str key j =
    match field key j with Str s -> s | _ -> codec_error "%S: expected a string" key
  in
  let list what = function Arr xs -> xs | _ -> codec_error "%s: expected an array" what in
  let hex_of what = function
    | Str s -> floats_of_hex s
    | _ -> codec_error "%s: expected a string" what
  in
  let scalar what v =
    match hex_of what v with [| x |] -> x | _ -> codec_error "%s: expected one float" what
  in
  let int what = function
    | Num x when Float.is_integer x -> int_of_float x
    | _ -> codec_error "%s: expected an integer" what
  in
  let labeled what f v =
    List.map
      (function
        | Arr [ Str name; x ] -> (name, f x)
        | _ -> codec_error "%s: expected [name, value]" what)
      (list what v)
  in
  let model what v =
    let classes =
      List.map
        (fun c ->
          {
            Sigproc.Gnb.label = str "label" c;
            means = hex_of "means" (field "means" c);
            vars = hex_of "vars" (field "vars" c);
          })
        (list what v)
    in
    try Sigproc.Gnb.of_classes classes
    with Invalid_argument msg -> codec_error "%s: %s" what msg
  in
  let thresholds what v = labeled what (scalar what) v in
  let bundle what b =
    {
      joint = model "joint" (field "joint" b);
      joint_scaler = pairs_of_hex (str "joint_scaler" b);
      joint_thresholds = thresholds "joint_thresholds" (field "joint_thresholds" b);
      per_profile =
        List.map
          (fun pm ->
            {
              profile_name = str "profile" pm;
              model = model "model" (field "model" pm);
              scaler = pairs_of_hex (str "scaler" pm);
              thresholds = thresholds "thresholds" (field "thresholds" pm);
            })
          (list (what ^ ".per_profile") (field "per_profile" b));
    }
  in
  let profile p =
    {
      Profile.name = str "name" p;
      bandwidth = scalar "bandwidth" (field "bandwidth" p);
      extra_delay = scalar "extra_delay" (field "extra_delay" p);
      base_delay = scalar "base_delay" (field "base_delay" p);
      buffer_bytes = int "buffer_bytes" (field "buffer_bytes" p);
    }
  in
  {
    profiles = List.map profile (list "profiles" (field "profiles" j));
    tcp = bundle "tcp" (field "tcp" j);
    quic = bundle "quic" (field "quic" j);
    samples =
      labeled "samples"
        (fun v -> List.map (hex_of "samples") (list "samples" v))
        (field "samples" j);
    degree_hist =
      labeled "degree_hist"
        (fun v -> Array.of_list (List.map (int "degree_hist") (list "degree_hist" v)))
        (field "degree_hist" j);
  }

let cached = lazy (train ())
let default () = Lazy.force cached

(* A content fingerprint of the trained model, for memo-cache keys: two
   controls that classify identically hash identically, and retraining
   with different runs/seeds/profiles changes the digest. The scalers and
   thresholds are a complete proxy for the fitted Gaussians here: they are
   derived from the same sample statistics the models are. *)
let fingerprint control =
  let buf = Buffer.create 4096 in
  let num x = Buffer.add_string buf (Printf.sprintf "%.17g;" x) in
  let str s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  let bundle b =
    Array.iter
      (fun (mean, std) ->
        num mean;
        num std)
      b.joint_scaler;
    List.iter
      (fun (name, threshold) ->
        str name;
        num threshold)
      b.joint_thresholds;
    List.iter
      (fun pm ->
        str pm.profile_name;
        Array.iter
          (fun (mean, std) ->
            num mean;
            num std)
          pm.scaler;
        List.iter
          (fun (name, threshold) ->
            str name;
            num threshold)
          pm.thresholds)
      b.per_profile
  in
  List.iter (fun (p : Profile.t) -> str p.Profile.name) control.profiles;
  bundle control.tcp;
  bundle control.quic;
  List.iter
    (fun (name, hist) ->
      str name;
      Array.iter (fun c -> num (float_of_int c)) hist)
    control.degree_hist;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let dominant_degree control cca =
  match List.assoc_opt cca control.degree_hist with
  | None -> 0
  | Some hist ->
    let best = ref 0 in
    Array.iteri (fun i count -> if count > hist.(!best) then best := i) hist;
    !best + 1
