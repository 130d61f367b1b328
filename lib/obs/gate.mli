(** Threshold gates: the one place a value is judged against a bound.

    A gate names a {e signal} its caller knows how to look up
    (["mean(accuracy)"] in a campaign summary, ["unknown_share"] in a
    serve epoch, ["ratio(census_serial_s)"] over a bench ledger), bounds
    it from below or above, and says how many consecutive breaches fire
    it ([streak]) and what a missing value means ([absent]). Campaign
    pass gates, serve alert rules and the bench ledger's regression
    gates are all lists of [t]. *)

type op = Floor  (** value must be [>= bound] *) | Ceiling  (** value must be [<= bound] *)
type status = Pass | Fail | Skip

type t = {
  name : string;
  signal : string;
  op : op;
  bound : float;
  streak : int;  (** consecutive breaches before a {!watch} fires (>= 1) *)
  absent : status;  (** the status of a missing value: [Skip] or [Fail] *)
}

val make : ?streak:int -> ?absent:status -> name:string -> string -> op -> float -> t
(** [make ~name signal op bound]; [streak] defaults to 1, [absent] to [Skip]. *)

val max_streak : int
(** The largest [streak] a rule file may ask for: 1_000_000. *)

val check : t -> float option -> status
(** A value equal to the bound passes; a non-finite value fails; a
    missing value gets the gate's [absent] status. *)

val call : string -> (string * string) option
(** Split a signal of the form ["fn(arg)"] into [(fn, arg)]. *)

val op_label : op -> string
(** ["floor"] / ["ceiling"] *)

val status_label : status -> string
(** ["pass"] / ["fail"] / ["skip"] *)

val describe : t -> string
(** ["mean(accuracy) >= 0.7"] — the clause the gate enforces. *)

type result = { gate : t; value : float option; status : status }

val evaluate : t list -> (string -> float option) -> result list
(** Look every gate's signal up and {!check} it, in list order. *)

val passed : result list -> bool
(** True iff no gate [Fail]ed. *)

val line : result -> string
(** ["  [PASS] name  clause  value 0.8\n"]: one fixed-width report line. *)

(** {1 Streaks} *)

type watch
type edge = Fire | Resolve

val watch : t list -> watch
(** Every gate quiet with an empty breach streak. *)

val observe : watch -> (string -> float option) -> (edge * result) list
(** Evaluate every gate once and return the edges, in list order: a gate
    fires on its [streak]-th consecutive [Fail] and resolves on the first
    evaluation that does not fail. A persisting breach, or a quiet gate
    staying quiet, returns nothing. *)

val firing : watch -> (string * bool) list
(** Gate name and whether it is firing, in list order. *)
