(** Control-data generation and classifier training (paper §3.4 step 4).

    The paper runs each kernel CCA 50 times from 5 vantage points against
    control servers under both network profiles and fits per-CCA
    coefficient clusters; here the vantage points become distinct noise
    seeds against the simulated testbed. Each measurement's per-segment
    shape features are averaged into a per-trace vector, and the vectors of
    the two profiles are concatenated into the joint sample the loss-based
    classifier matches against (the second profile is exactly what
    disambiguates look-alikes such as NewReno/HSTCP, §3.3). TCP and QUIC
    traces get separate model bundles, the refinement §5 of the paper
    proposes for QUIC. *)

type profile_model = {
  profile_name : string;
  model : Sigproc.Gnb.model;
  scaler : (float * float) array;
  thresholds : (string * float) list;
}

type bundle = {
  joint : Sigproc.Gnb.model;  (** over concatenated per-profile vectors *)
  joint_scaler : (float * float) array;
  joint_thresholds : (string * float) list;
      (** per-class log-likelihood floor: 5th percentile of the training
          samples' own-class likelihood, minus slack *)
  per_profile : profile_model list;
      (** single-profile fallback models, same order as [profiles] *)
}

(** The knobs a control is a deterministic function of. Built only by
    {!config}, which validates it once; its {!config_key} is also the key
    of the on-disk control cache ([Control_cache]). *)
type config = private {
  runs_per_cca : int;
  quic_runs_per_cca : int;
  seed : int;
  profiles : Profile.t list;
  page_bytes : int;
}

type control = {
  profiles : Profile.t list;  (** profile order used for concatenation *)
  tcp : bundle;
  quic : bundle;
  samples : (string * float array list) list;
      (** raw per-segment feature vectors per CCA (Figure 7 / Table 2) *)
  degree_hist : (string * int array) list;
      (** per CCA: counts of best-fit degree 1, 2, 3 (Table 2) *)
}

val vantage_count : int
(** 5, matching the paper's Ohio/Paris/Mumbai/Singapore/Sao-Paulo set. *)

val vantage_noise : int -> Netsim.Path.noise
(** Noise profile of the i-th vantage point. *)

val bundle_for : control -> Netsim.Packet.proto -> bundle

val train :
  ?runs_per_cca:int ->
  ?quic_runs_per_cca:int ->
  ?profiles:Profile.t list ->
  ?seed:int ->
  ?page_bytes:int ->
  ?transform:(rtt:float -> (float * float) list -> (float * float) list) ->
  unit ->
  control
(** Runs every loss-based kernel CCA [runs_per_cca] times over TCP and
    [quic_runs_per_cca] times over QUIC (defaults 15 and 8) under each
    profile and fits the models. [transform] is applied to every BiF series
    before the pipeline — used by the metric ablation to train on degraded
    (e.g. per-RTT cwnd-style) traces. *)

val config :
  ?runs_per_cca:int ->
  ?quic_runs_per_cca:int ->
  ?profiles:Profile.t list ->
  ?seed:int ->
  ?page_bytes:int ->
  unit ->
  (config, string) result
(** Same defaults as {!train}. [Error] names the offending knob: fewer than
    2 TCP or QUIC runs per CCA (a model class needs at least two
    vectors), no profile, or a non-positive page size. *)

val train_config : config -> control
(** {!train} at a validated configuration. *)

val config_key : config -> string
(** Canonical, human-readable rendering of every field (floats as exact
    bit patterns): equal keys train equal controls. *)

(** {1 Codec}

    One schema-envelope kind, ["nebby_control"] (version 1), carrying the
    whole control: profiles, both bundles with their GNB class means and
    variances, scalers, thresholds, samples and degree histograms. Every
    float is written as its 64-bit pattern in hex, so the round trip is
    bit-exact — including -0.0, infinities and NaN payloads. *)

val schema_kind : string
val schema_version : int

val to_json : control -> Obs.Json.t

val of_json : Obs.Json.t -> control
(** Inverse of {!to_json}. Raises [Obs.Json.Parse_error] on a wrong kind
    or a malformed body, and [Obs.Envelope.Version_mismatch] on another
    schema version. *)

val default : unit -> control
(** Cached deterministic training run used by the default classifier. *)

val fingerprint : control -> string
(** Stable hex digest of the trained model's content (profile names,
    scalers, per-class thresholds, degree histograms) — the
    control-version component of measurement memo-cache keys: retraining
    with different data changes the digest, re-deriving the same control
    does not. *)

val apply_scaler : (float * float) array -> float array -> float array

val percentile : float -> float list -> float
(** [percentile q xs]: the q-quantile of a sample (q in [0,1]). *)

val dominant_degree : control -> string -> int
(** Most frequent best-fit degree for a CCA, 1-3 (Table 2). *)
