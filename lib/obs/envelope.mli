(** The schema envelope every versioned file format shares.

    Each record or header line a reader must gate starts with two
    fields, in this order: [{"kind":K,"version":N, ...}]. [kind] names
    the format (["nebby_journal"], ["pool_trace"], ["provenance"], …)
    and [version] is that format's own integer schema version. Writers
    build the envelope with {!obj}; readers gate on it with {!check}
    before touching any other field, so a file of another format or
    another schema generation fails loudly instead of being misread
    field by field.

    One policy covers every reader: a wrong or missing [kind], and a
    missing or non-integer [version], are shape errors
    ([Json.Parse_error], with a message naming the kind); an integer
    version other than the reader's raises {!Version_mismatch}. *)

exception Version_mismatch of { kind : string; expected : int; got : int }

val obj : kind:string -> version:int -> (string * Json.t) list -> Json.t
(** [obj ~kind ~version fields] is
    [Obj (("kind", Str kind) :: ("version", Num version) :: fields)]. *)

val check : kind:string -> version:int -> Json.t -> unit
(** Checks [kind] first, then [version]. Raises [Json.Parse_error] when
    the kind differs (the message names both kinds) or is missing, or
    when the version is missing or not an integer; raises
    {!Version_mismatch} when it is an integer other than [version]. *)
