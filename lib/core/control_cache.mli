(** On-disk cache of trained controls.

    A control is a deterministic function of its {!Training.config} and of
    the code that trained it, so a process can load it instead of
    retraining. Each configuration has one entry file, named after a
    digest of {!Training.config_key}. The file holds two lines:

    - a header [{"key":K,"binary":B,"body":D}]: the full config key, the
      digest [B] of the executable that wrote the entry, and the MD5 [D]
      of the body line;
    - the body, {!Training.to_json} of the control (schema kind
      ["nebby_control"]).

    An entry is used only when its key and binary match the caller's and
    its body checks out, so any rebuild invalidates every entry. A
    missing, truncated, corrupted, foreign or stale entry is a miss: the
    control is trained and the entry rewritten atomically (a temporary
    file in the cache directory, then a rename). Cache trouble never
    raises; when the entry cannot be written the trained control is still
    returned. *)

type outcome =
  | Hit  (** loaded from the entry file *)
  | Miss of { reason : string; store_error : string option }
      (** trained; [store_error] is [None] when the entry was (re)written *)

val default_dir : unit -> string option
(** [$XDG_CACHE_HOME/nebby] when [XDG_CACHE_HOME] is an absolute path,
    else [$HOME/.cache/nebby]; [None] when neither is usable. *)

val entry_path : dir:string -> Training.config -> string
(** The entry file of a configuration inside [dir]. *)

val acquire :
  dir:string option -> binary:string -> Training.config -> Training.control * outcome
(** The control of a configuration: loaded from its entry in [dir] when
    that entry was written by [binary] for the same key, else trained
    with {!Training.train_config} and stored. Loading runs under the
    ["control.load"] span and storing under ["control.store"]; training
    keeps its own ["train"] span. With [dir = None] it only trains. *)
