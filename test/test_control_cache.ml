(* The trained-control codec and its on-disk cache: the codec round-trips
   every float bit for bit (-0.0, infinities and NaN payloads included), a
   loaded control classifies exactly like the trained one at any worker
   count, and every damaged, foreign or stale cache entry is a miss that
   gets rewritten — never an exception. *)

let bits = Int64.bits_of_float

(* A control with every float replaced by its bit pattern: structural
   equality on this is bit-exact equality of the controls. *)
let repr (c : Nebby.Training.control) =
  let fs a = Array.map bits a in
  let pairs a = Array.map (fun (x, y) -> (bits x, bits y)) a in
  let thresholds = List.map (fun (name, x) -> (name, bits x)) in
  let model m =
    List.map
      (fun (k : Sigproc.Gnb.class_model) -> (k.label, fs k.means, fs k.vars))
      (Sigproc.Gnb.to_classes m)
  in
  let bundle (b : Nebby.Training.bundle) =
    ( model b.joint,
      pairs b.joint_scaler,
      thresholds b.joint_thresholds,
      List.map
        (fun (pm : Nebby.Training.profile_model) ->
          (pm.profile_name, model pm.model, pairs pm.scaler, thresholds pm.thresholds))
        b.per_profile )
  in
  ( List.map
      (fun (p : Nebby.Profile.t) ->
        (p.name, fs [| p.bandwidth; p.extra_delay; p.base_delay |], p.buffer_bytes))
      c.profiles,
    bundle c.tcp,
    bundle c.quic,
    List.map (fun (name, vecs) -> (name, List.map fs vecs)) c.samples,
    c.degree_hist )

let specials =
  [|
    -0.0; infinity; neg_infinity; nan; Int64.float_of_bits 0xfff8_0000_dead_beefL; 5e-324;
  |]

(* Plants the special values in a class mean, a scaler, the thresholds
   and the samples. *)
let with_specials (c : Nebby.Training.control) =
  let tcp = c.tcp in
  let joint =
    match Sigproc.Gnb.to_classes tcp.joint with
    | k :: rest ->
      Sigproc.Gnb.of_classes
        ({ k with means = Array.mapi (fun i x -> if i < 6 then specials.(i) else x) k.means }
         :: rest)
    | [] -> tcp.joint
  in
  {
    c with
    tcp =
      {
        tcp with
        joint;
        joint_scaler =
          Array.mapi
            (fun i p -> if i = 0 then (-0.0, specials.(4)) else p)
            tcp.joint_scaler;
        joint_thresholds =
          tcp.joint_thresholds @ [ ("floor", neg_infinity); ("nan", specials.(4)) ];
      };
    samples = ("specials", [ specials ]) :: c.samples;
  }

let small () = Controls.get ~runs:3 ~quic_runs:2 ~seed:11

let replace_first ~from ~to_ text =
  let n = String.length from in
  let rec find i = if String.sub text i n = from then i else find (i + 1) in
  let i = find 0 in
  String.sub text 0 i ^ to_ ^ String.sub text (i + n) (String.length text - i - n)

let round_trip c =
  Nebby.Training.of_json (Obs.Json.of_string (Obs.Json.to_string (Nebby.Training.to_json c)))

let test_codec_bit_exact () =
  let c = with_specials (small ()) in
  let c' = round_trip c in
  Alcotest.(check bool) "structurally equal, floats by bits" true (repr c = repr c');
  Alcotest.(check string) "same fingerprint" (Nebby.Training.fingerprint c)
    (Nebby.Training.fingerprint c');
  let plain = small () in
  Alcotest.(check bool) "trained control round-trips" true
    (repr plain = repr (round_trip plain))

let test_codec_envelope () =
  let text = Obs.Json.to_string (Nebby.Training.to_json (small ())) in
  let edit ~from ~to_ = replace_first ~from ~to_ text in
  (match
     Nebby.Training.of_json
       (Obs.Json.of_string (edit ~from:{|"version":1|} ~to_:{|"version":99|}))
   with
  | _ -> Alcotest.fail "v99 accepted"
  | exception Obs.Envelope.Version_mismatch { kind = "nebby_control"; got = 99; _ } -> ());
  match
    Nebby.Training.of_json
      (Obs.Json.of_string (edit ~from:{|"kind":"nebby_control"|} ~to_:{|"kind":"foreign"|}))
  with
  | _ -> Alcotest.fail "foreign kind accepted"
  | exception Obs.Json.Parse_error _ -> ()

(* ---- the cache ---- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "control_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () -> f (Filename.concat dir "nebby"))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* Cheap to train: one profile, short pages, two runs per CCA. *)
let cheap =
  match
    Nebby.Training.config ~runs_per_cca:2 ~quic_runs_per_cca:2
      ~profiles:[ Nebby.Profile.delay_50ms ] ~page_bytes:150_000 ()
  with
  | Ok c -> c
  | Error e -> failwith e

let acquire ?(binary = "self") dir config =
  Nebby.Control_cache.acquire ~dir:(Some dir) ~binary config

let expect_miss what = function
  | Nebby.Control_cache.Miss { reason; store_error = None } -> reason
  | Nebby.Control_cache.Miss { store_error = Some e; _ } ->
    Alcotest.failf "%s: entry not rewritten: %s" what e
  | Nebby.Control_cache.Hit -> Alcotest.failf "%s: unexpected hit" what

let expect_hit what = function
  | Nebby.Control_cache.Hit -> ()
  | Nebby.Control_cache.Miss { reason; _ } -> Alcotest.failf "%s: miss (%s)" what reason

let test_hit_after_miss () =
  with_dir (fun dir ->
      let trained, first = acquire dir cheap in
      ignore (expect_miss "empty cache" first);
      Alcotest.(check bool) "entry written" true
        (Sys.file_exists (Nebby.Control_cache.entry_path ~dir cheap));
      let loaded, second = acquire dir cheap in
      expect_hit "warm cache" second;
      Alcotest.(check bool) "loaded = trained, bit for bit" true
        (repr trained = repr loaded))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Rewrites the body of an entry and re-signs its header, so the damage
   reaches the codec instead of stopping at the checksum. *)
let forge ~from ~to_ text =
  let i = String.index text '\n' in
  let body =
    replace_first ~from ~to_ (String.sub text (i + 1) (String.length text - i - 2))
  in
  let header =
    match Obs.Json.of_string (String.sub text 0 i) with
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "body" then (k, Obs.Json.Str (Digest.to_hex (Digest.string body)))
             else (k, v))
           kvs)
    | _ -> Alcotest.fail "entry header is not an object"
  in
  Obs.Json.to_string header ^ "\n" ^ body ^ "\n"

let flip_bit text =
  let b = Bytes.of_string text in
  let i = 2 * Bytes.length b / 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
  Bytes.to_string b

let damages =
  [
    ("truncated", (fun t -> String.sub t 0 (String.length t / 2)), None);
    ("header only", (fun t -> String.sub t 0 (String.index t '\n')), None);
    ("bit-flipped", flip_bit, Some "checksum");
    ("empty", (fun _ -> ""), None);
    ("not json", (fun _ -> "garbage\nmore garbage\n"), None);
    ( "wrong kind",
      forge ~from:{|"kind":"nebby_control"|} ~to_:{|"kind":"foreign"|},
      Some "foreign" );
    ("v99", forge ~from:{|"version":1|} ~to_:{|"version":99|}, Some "v99");
  ]

let test_damaged_entries_rewritten () =
  with_dir (fun dir ->
      let trained, _ = acquire dir cheap in
      let path = Nebby.Control_cache.entry_path ~dir cheap in
      let good = read_file path in
      List.iter
        (fun (what, damage, mention) ->
          write_file path (damage good);
          let control, outcome = acquire dir cheap in
          let reason = expect_miss what outcome in
          Option.iter
            (fun needle ->
              if not (contains ~needle reason) then
                Alcotest.failf "%s: reason %S does not mention %s" what reason needle)
            mention;
          Alcotest.(check bool) (what ^ ": retrained control is the same") true
            (repr trained = repr control);
          Alcotest.(check string) (what ^ ": entry rewritten") good (read_file path);
          expect_hit (what ^ ", then") (snd (acquire dir cheap)))
        damages)

let test_other_binary_rewritten () =
  with_dir (fun dir ->
      ignore (acquire ~binary:"old-build" dir cheap);
      let build b = snd (acquire ~binary:b dir cheap) in
      let reason = expect_miss "other binary" (build "new-build") in
      Alcotest.(check bool) "reason names the binary" true
        (contains ~needle:"binary" reason);
      expect_hit "rewritten for this binary" (build "new-build");
      ignore (expect_miss "and the old build misses" (build "old-build")))

let test_keys_do_not_collide () =
  with_dir (fun dir ->
      let other =
        match
          Nebby.Training.config ~runs_per_cca:2 ~quic_runs_per_cca:2 ~seed:8
            ~profiles:[ Nebby.Profile.delay_50ms ] ~page_bytes:150_000 ()
        with
        | Ok c -> c
        | Error e -> failwith e
      in
      Alcotest.(check bool) "distinct entry files" true
        (Nebby.Control_cache.entry_path ~dir cheap
        <> Nebby.Control_cache.entry_path ~dir other);
      ignore (acquire dir cheap);
      ignore (expect_miss "another seed" (snd (acquire dir other)));
      expect_hit "first key still cached" (snd (acquire dir cheap)))

let test_unwritable_dir_trains () =
  let file = Filename.temp_file "control_cache" ".file" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (* a directory below a regular file can be neither created nor read,
         whatever the process's privileges *)
      let dir = Filename.concat file "nebby" in
      let trained, outcome = acquire dir cheap in
      (match outcome with
      | Nebby.Control_cache.Miss { store_error = Some _; _ } -> ()
      | _ -> Alcotest.fail "an unwritable cache must report that it stored nothing");
      let _, again = Nebby.Control_cache.acquire ~dir:None ~binary:"self" cheap in
      (match again with
      | Nebby.Control_cache.Miss { store_error = Some _; _ } -> ()
      | _ -> Alcotest.fail "no cache directory must only train");
      Alcotest.(check bool) "trained anyway" true
        (Sigproc.Gnb.classes trained.Nebby.Training.tcp.Nebby.Training.joint <> []))

let test_default_dir () =
  let saved =
    List.map
      (fun v -> (v, Option.value ~default:"" (Sys.getenv_opt v)))
      [ "XDG_CACHE_HOME"; "HOME" ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (v, x) -> Unix.putenv v x) saved)
    (fun () ->
      Unix.putenv "HOME" "/home/u";
      Unix.putenv "XDG_CACHE_HOME" "/var/cache/x";
      Alcotest.(check (option string)) "XDG_CACHE_HOME wins" (Some "/var/cache/x/nebby")
        (Nebby.Control_cache.default_dir ());
      Unix.putenv "XDG_CACHE_HOME" "relative/dir";
      Alcotest.(check (option string)) "a relative XDG_CACHE_HOME is ignored"
        (Some "/home/u/.cache/nebby") (Nebby.Control_cache.default_dir ());
      Unix.putenv "XDG_CACHE_HOME" "";
      Alcotest.(check (option string)) "HOME fallback" (Some "/home/u/.cache/nebby")
        (Nebby.Control_cache.default_dir ()))

(* A census classifies identically with the control loaded from the cache
   and the one trained in process, serially and on four workers. *)
let test_loaded_census_matches () =
  let config =
    match Nebby.Training.config ~runs_per_cca:3 ~quic_runs_per_cca:2 ~seed:11 () with
    | Ok c -> c
    | Error e -> failwith e
  in
  with_dir (fun dir ->
      ignore (acquire dir config);
      let loaded, outcome = acquire dir config in
      expect_hit "warm cache" outcome;
      let trained = small () in
      Alcotest.(check bool) "loaded = trained in process, bit for bit" true
        (repr loaded = repr trained);
      let websites = Internet.Population.generate ~n:12 ~seed:5 () in
      let labels ~jobs control =
        List.map
          (fun (site, label) -> (site.Internet.Website.name, label))
          (Internet.Census.labels ~jobs ~control ~proto:Netsim.Packet.Tcp
             ~region:Internet.Region.Ohio websites)
      in
      let reference = labels ~jobs:1 trained in
      let check what got =
        Alcotest.(check (list (pair string string))) what reference got
      in
      check "jobs=1" (labels ~jobs:1 loaded);
      check "jobs=4" (labels ~jobs:4 loaded))

let test_config_validation () =
  let rejects what r =
    match r with Ok _ -> Alcotest.failf "%s accepted" what | Error _ -> ()
  in
  rejects "1 TCP run" (Nebby.Training.config ~runs_per_cca:1 ());
  rejects "0 QUIC runs" (Nebby.Training.config ~quic_runs_per_cca:0 ());
  rejects "1 QUIC run" (Nebby.Training.config ~quic_runs_per_cca:1 ());
  rejects "no profile" (Nebby.Training.config ~profiles:[] ());
  rejects "empty page" (Nebby.Training.config ~page_bytes:0 ());
  match Nebby.Training.config ~runs_per_cca:2 ~quic_runs_per_cca:2 () with
  | Ok c ->
    Alcotest.(check string) "key names every knob"
      "runs=2;quic_runs=2;seed=7;page_bytes=600000"
      (String.sub (Nebby.Training.config_key c) 0 43)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "codec round-trips every float bit-exactly" `Quick
      test_codec_bit_exact;
    Alcotest.test_case "codec checks the schema envelope" `Quick test_codec_envelope;
    Alcotest.test_case "training config validated once" `Quick test_config_validation;
    Alcotest.test_case "a stored entry is loaded" `Quick test_hit_after_miss;
    Alcotest.test_case "damaged entries are misses, rewritten" `Quick
      test_damaged_entries_rewritten;
    Alcotest.test_case "another binary's entry is a miss" `Quick
      test_other_binary_rewritten;
    Alcotest.test_case "one entry per key" `Quick test_keys_do_not_collide;
    Alcotest.test_case "unwritable cache still trains" `Quick test_unwritable_dir_trains;
    Alcotest.test_case "cache directory from the environment" `Quick test_default_dir;
    Alcotest.test_case "loaded control: same census at jobs 1 and 4" `Slow
      test_loaded_census_matches;
  ]
