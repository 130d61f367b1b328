(* Unit tests for the individual classifier plugins, driven by synthetic
   BiF waveforms with known properties — no simulator in the loop, so each
   rule of §3.4/§4.3/App. D is exercised in isolation. *)

let dt = 0.02
let rtt = 0.12

(* Build a synthetic BiF series: a function of time sampled at [dt]. *)
let series ~duration f = List.init (int_of_float (duration /. dt)) (fun i ->
    let t = float_of_int i *. dt in
    (t, Float.max 0.0 (f t)))

let prepare ?(rtt = rtt) pts = Nebby.Pipeline.prepare ~rtt pts

(* plateau at [level] with deep drains to ~0 every [drain_every] seconds
   (drain lasts [drain_len]), plus an optional ripple *)
let plateau_with_drains ?(level = 6000.0) ?(ripple_period = 0.0) ?(ripple_amp = 0.0)
    ?(drain_len = 0.5) ~drain_every t =
  let phase = Float.rem t drain_every in
  if phase < drain_len then 200.0
  else
    let r =
      if ripple_period > 0.0 then
        ripple_amp *. sin (2.0 *. Float.pi *. t /. ripple_period)
      else 0.0
    in
    level +. r

(* AIMD sawtooth between [lo] and [hi] with period [period] *)
let sawtooth ~lo ~hi ~period t =
  let phase = Float.rem t period /. period in
  lo +. ((hi -. lo) *. phase)

(* ---- Trace_sig helpers ---- *)

let test_intervals () =
  Alcotest.(check (list (float 1e-9))) "gaps" [ 2.0; 3.0 ]
    (Nebby.Trace_sig.intervals [ 1.0; 3.0; 6.0 ]);
  Alcotest.(check (list (float 1e-9))) "empty" [] (Nebby.Trace_sig.intervals [ 5.0 ])

let test_interval_stats () =
  (match Nebby.Trace_sig.interval_stats [ 2.0; 2.0; 2.0 ] with
  | Some (mean, cov) ->
    Alcotest.(check (float 1e-9)) "mean" 2.0 mean;
    Alcotest.(check (float 1e-9)) "cov of constant" 0.0 cov
  | None -> Alcotest.fail "stats expected");
  Alcotest.(check bool) "none on empty" true (Nebby.Trace_sig.interval_stats [] = None)

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Nebby.Trace_sig.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Nebby.Trace_sig.median [| 1.0; 2.0; 3.0; 4.0 |])

let test_flatness_extremes () =
  let flat_seg =
    {
      Nebby.Pipeline.start_time = 0.0;
      duration = 2.0;
      values = Array.make 100 5000.0;
      raw_max = 5000.0;
      raw_min = 5000.0;
      drop_frac = 0.0;
    }
  in
  Alcotest.(check (float 1e-9)) "perfect plateau" 1.0 (Nebby.Trace_sig.flatness flat_seg);
  let ramp_seg =
    { flat_seg with values = Array.init 100 (fun i -> float_of_int (i + 1) *. 100.0);
                    raw_max = 10000.0; raw_min = 100.0 }
  in
  Alcotest.(check bool) "ramp is not flat" true (Nebby.Trace_sig.flatness ramp_seg < 0.5)

let test_oscillation_period_detects_sine () =
  (* slow enough that the sine's own descents are not taken for back-offs
     (the back-off detector triggers on sines faster than ~4*pi RTTs) *)
  let period = 16.0 *. rtt in
  let pts =
    series ~duration:20.0 (fun t -> 5000.0 +. (800.0 *. sin (2.0 *. Float.pi *. t /. period)))
  in
  let p = prepare pts in
  match p.Nebby.Pipeline.segments with
  | seg :: _ -> (
    match Nebby.Trace_sig.oscillation_period p seg with
    | Some detected ->
      Alcotest.(check bool)
        (Printf.sprintf "period %.2f ~ %.2f" detected period)
        true
        (Float.abs (detected -. period) < 0.35 *. period)
    | None -> Alcotest.fail "oscillation not detected")
  | [] -> Alcotest.fail "no segment"

let test_oscillation_period_none_on_flat () =
  let p = prepare (series ~duration:20.0 (fun _ -> 5000.0)) in
  match p.Nebby.Pipeline.segments with
  | seg :: _ ->
    Alcotest.(check bool) "no period on a flat line" true
      (Nebby.Trace_sig.oscillation_period p seg = None)
  | [] -> Alcotest.fail "no segment"

let test_deep_drains_gates () =
  (* deep periodic drains on a flat plateau pass every gate *)
  let p = prepare (series ~duration:32.0 (plateau_with_drains ~drain_every:10.0)) in
  let drains = Nebby.Trace_sig.deep_drains p in
  Alcotest.(check bool)
    (Printf.sprintf "%d drains found" (List.length drains))
    true
    (List.length drains >= 2);
  (* an AIMD sawtooth's shallow halvings do not *)
  let p2 = prepare (series ~duration:32.0 (sawtooth ~lo:4000.0 ~hi:8000.0 ~period:5.0)) in
  Alcotest.(check int) "no deep drains in a sawtooth" 0
    (List.length (Nebby.Trace_sig.deep_drains p2))

let test_deep_drains_reject_glitches () =
  (* same plateau but the dips bounce straight back: dwell gate rejects *)
  let p =
    prepare (series ~duration:32.0 (plateau_with_drains ~drain_len:0.06 ~drain_every:10.0))
  in
  Alcotest.(check int) "instant dips rejected" 0 (List.length (Nebby.Trace_sig.deep_drains p))

(* ---- BBR classifier ---- *)

let classify_bbr pts = Nebby.Bbr_classifier.plugin.Nebby.Plugin.classify (prepare pts)

let test_bbr_v1_signature () =
  (* ripple every 8 RTTs + drains every 10 s = BBRv1 *)
  let pts =
    series ~duration:34.0
      (plateau_with_drains ~ripple_period:(8.0 *. rtt) ~ripple_amp:700.0 ~drain_every:10.0)
  in
  match classify_bbr pts with
  | Some v -> Alcotest.(check string) "bbr" "bbr" v.Nebby.Plugin.label
  | None -> Alcotest.fail "v1 signature missed"

let test_bbr_v2_signature () =
  (* flat cruise >= 2 s with drains every 5 s, no 8-RTT ripple = BBRv2 *)
  let pts = series ~duration:26.0 (plateau_with_drains ~drain_every:5.0) in
  match classify_bbr pts with
  | Some v -> Alcotest.(check string) "bbr2" "bbr2" v.Nebby.Plugin.label
  | None -> Alcotest.fail "v2 signature missed"

let test_bbr_unknown_signature () =
  (* periodic deep drains and a probing oscillation, but neither known
     rule (probes too slow for v1, drains too slow for v2): the BBR-like
     unknown of Fig 9 *)
  let pts =
    series ~duration:32.0
      (plateau_with_drains ~ripple_period:(20.0 *. rtt) ~ripple_amp:1000.0 ~drain_every:7.2)
  in
  match classify_bbr pts with
  | Some v ->
    Alcotest.(check string) "bbr_unknown" Nebby.Bbr_classifier.label_unknown_bbr
      v.Nebby.Plugin.label
  | None -> Alcotest.fail "bbr-like unknown missed"

let test_bbr_silent_on_sawtooth () =
  let pts = series ~duration:30.0 (sawtooth ~lo:4000.0 ~hi:8000.0 ~period:5.0) in
  Alcotest.(check bool) "no verdict on AIMD" true (classify_bbr pts = None)

let test_bbr_silent_on_flat () =
  let pts = series ~duration:30.0 (fun _ -> 5000.0) in
  Alcotest.(check bool) "no verdict without drains" true (classify_bbr pts = None)

(* ---- AkamaiCC classifier ---- *)

let classify_akamai pts = Nebby.Akamai_classifier.plugin.Nebby.Plugin.classify (prepare pts)

let test_akamai_signature () =
  let pts = series ~duration:35.0 (plateau_with_drains ~drain_every:16.0) in
  match classify_akamai pts with
  | Some v -> Alcotest.(check string) "akamai_cc" "akamai_cc" v.Nebby.Plugin.label
  | None -> Alcotest.fail "akamai signature missed"

let test_akamai_rejects_v1_ripple () =
  (* same cadence but with BBRv1's probing ripple: must stay silent *)
  let pts =
    series ~duration:35.0
      (plateau_with_drains ~ripple_period:(8.0 *. rtt) ~ripple_amp:900.0 ~drain_every:16.0)
  in
  Alcotest.(check bool) "ripple excludes akamai" true (classify_akamai pts = None)

let test_akamai_rejects_fast_cadence () =
  (* drains every 5 s are BBRv2 territory, not a 10-20 s epoch *)
  let pts = series ~duration:26.0 (plateau_with_drains ~drain_every:5.0) in
  Alcotest.(check bool) "fast cadence excluded" true (classify_akamai pts = None)

(* ---- Copa classifier ---- *)

let classify_copa pts = Nebby.Copa_classifier.plugin.Nebby.Plugin.classify (prepare pts)

let test_copa_signature () =
  (* pronounced oscillation around a level every ~5 RTTs, never draining *)
  let period = 5.0 *. rtt in
  let pts =
    series ~duration:25.0 (fun t ->
        5000.0 +. (2500.0 *. sin (2.0 *. Float.pi *. t /. period)))
  in
  match classify_copa pts with
  | Some v -> Alcotest.(check string) "copa" "copa" v.Nebby.Plugin.label
  | None -> Alcotest.fail "copa signature missed"

let test_copa_rejects_deep_drains () =
  let pts = series ~duration:32.0 (plateau_with_drains ~drain_every:10.0) in
  Alcotest.(check bool) "drains exclude copa" true (classify_copa pts = None)

let test_copa_rejects_flat () =
  let pts = series ~duration:25.0 (fun _ -> 5000.0) in
  Alcotest.(check bool) "flat excludes copa" true (classify_copa pts = None)

(* ---- Vivace classifier ---- *)

let classify_vivace pts = Nebby.Vivace_classifier.plugin.Nebby.Plugin.classify (prepare pts)

let test_vivace_signature () =
  (* small alternating rate steps every couple of RTTs *)
  let pts =
    series ~duration:25.0 (fun t ->
        let step = int_of_float (t /. (2.0 *. rtt)) in
        if step mod 2 = 0 then 5200.0 else 4800.0)
  in
  match classify_vivace pts with
  | Some v -> Alcotest.(check string) "vivace" "vivace" v.Nebby.Plugin.label
  | None -> Alcotest.fail "vivace steps missed"

let test_vivace_rejects_large_swings () =
  let pts = series ~duration:25.0 (sawtooth ~lo:2000.0 ~hi:8000.0 ~period:3.0) in
  Alcotest.(check bool) "large swings excluded" true (classify_vivace pts = None)

(* ---- combination rules ---- *)

let test_extended_plugin_list () =
  let control = Controls.get ~runs:4 ~quic_runs:2 ~seed:7 in
  Alcotest.(check int) "one built-in rate-based plugin" 1
    (List.length (Nebby.Classifier.default_plugins control));
  Alcotest.(check int) "three extensions" 4
    (List.length (Nebby.Classifier.extended_plugins control))

let test_combine_agreement () =
  let v l c = { Nebby.Plugin.label = l; confidence = c } in
  (match Nebby.Classifier.combine [ v "cubic" 0.9; v "cubic" 0.4 ] with
  | Nebby.Classifier.Known "cubic" -> ()
  | _ -> Alcotest.fail "agreement must classify");
  match Nebby.Classifier.combine [ v "cubic" 0.6; v "bbr" 0.55 ] with
  | Nebby.Classifier.Unknown -> ()
  | Nebby.Classifier.Known l -> Alcotest.fail ("close conflict resolved to " ^ l)

let prop_pipeline_total =
  QCheck.Test.make ~name:"pipeline survives arbitrary nonnegative series" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 2 400) (float_bound_inclusive 20000.0))
    (fun vs ->
      let pts = List.mapi (fun i v -> (0.05 *. float_of_int i, v)) vs in
      let p = prepare pts in
      List.for_all
        (fun (seg : Nebby.Pipeline.segment) ->
          seg.duration >= 0.0 && seg.raw_min <= seg.raw_max)
        p.Nebby.Pipeline.segments)

let prop_bif_estimate_nonnegative =
  QCheck.Test.make ~name:"tcp BiF estimate is never negative" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_bound 100))
    (fun seqs ->
      let trace = Netsim.Trace.create () in
      List.iteri
        (fun i s ->
          let now = 0.01 *. float_of_int i in
          if i mod 3 = 2 then
            Netsim.Trace.record trace ~now
              (Netsim.Packet.ack Netsim.Packet.Tcp ~id:i ~ack:(s * 250) ~now ())
          else
            Netsim.Trace.record trace ~now
              (Netsim.Packet.data Netsim.Packet.Tcp ~id:i ~seq:(s * 250) ~payload:250
                 ~retx:false ~now))
        seqs;
      List.for_all (fun (_, v) -> v >= 0.0) (Nebby.Bif.estimate trace))

let suite =
  [
    Alcotest.test_case "intervals between times" `Quick test_intervals;
    Alcotest.test_case "interval statistics" `Quick test_interval_stats;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "flatness extremes" `Quick test_flatness_extremes;
    Alcotest.test_case "oscillation period of a sine" `Quick test_oscillation_period_detects_sine;
    Alcotest.test_case "no oscillation on a flat line" `Quick test_oscillation_period_none_on_flat;
    Alcotest.test_case "deep-drain gates accept drains, reject sawtooths" `Quick
      test_deep_drains_gates;
    Alcotest.test_case "deep-drain dwell gate rejects glitches" `Quick
      test_deep_drains_reject_glitches;
    Alcotest.test_case "bbr classifier: v1 signature" `Quick test_bbr_v1_signature;
    Alcotest.test_case "bbr classifier: v2 signature" `Quick test_bbr_v2_signature;
    Alcotest.test_case "bbr classifier: BBR-like unknown" `Quick test_bbr_unknown_signature;
    Alcotest.test_case "bbr classifier silent on sawtooths" `Quick test_bbr_silent_on_sawtooth;
    Alcotest.test_case "bbr classifier silent on flat traces" `Quick test_bbr_silent_on_flat;
    Alcotest.test_case "akamai classifier: signature" `Quick test_akamai_signature;
    Alcotest.test_case "akamai classifier rejects v1 ripple" `Quick test_akamai_rejects_v1_ripple;
    Alcotest.test_case "akamai classifier rejects fast cadence" `Quick
      test_akamai_rejects_fast_cadence;
    Alcotest.test_case "copa classifier: signature" `Quick test_copa_signature;
    Alcotest.test_case "copa classifier rejects deep drains" `Quick test_copa_rejects_deep_drains;
    Alcotest.test_case "copa classifier rejects flat traces" `Quick test_copa_rejects_flat;
    Alcotest.test_case "vivace classifier: small steps" `Quick test_vivace_signature;
    Alcotest.test_case "vivace classifier rejects large swings" `Quick
      test_vivace_rejects_large_swings;
    Alcotest.test_case "plugin lists have the documented sizes" `Slow test_extended_plugin_list;
    Alcotest.test_case "verdict combination rules" `Quick test_combine_agreement;
    QCheck_alcotest.to_alcotest prop_pipeline_total;
    QCheck_alcotest.to_alcotest prop_bif_estimate_nonnegative;
  ]
