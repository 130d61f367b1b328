(* Declarative per-epoch alerting. See alerts.mli; the engine is an
   Obs.Gate streak watch — breach streak plus a firing bit per rule — and
   everything interesting is in what it does NOT emit: no line while a
   breach persists, no line while a rule stays quiet. *)

let schema_version = 1

type signal =
  | Unknown_share
  | Mean_confidence
  | Mean_margin
  | Timeouts
  | Drift_rate
  | Journal_lag
  | Overload_share

let signal_name = function
  | Unknown_share -> "unknown_share"
  | Mean_confidence -> "mean_confidence"
  | Mean_margin -> "mean_margin"
  | Timeouts -> "timeouts"
  | Drift_rate -> "drift_rate"
  | Journal_lag -> "journal_lag"
  | Overload_share -> "overload_share"

let signal_of_name = function
  | "unknown_share" -> Some Unknown_share
  | "mean_confidence" -> Some Mean_confidence
  | "mean_margin" -> Some Mean_margin
  | "timeouts" -> Some Timeouts
  | "drift_rate" -> Some Drift_rate
  | "journal_lag" -> Some Journal_lag
  | "overload_share" -> Some Overload_share
  | _ -> None

type rule = Obs.Gate.t

let rule ?(for_epochs = 1) name signal op limit =
  Obs.Gate.make ~streak:for_epochs ~name (signal_name signal) op limit

let default_rules =
  [
    rule "unknown-share" Unknown_share Ceiling 45.0;
    rule "mean-confidence" Mean_confidence Floor 0.5;
    rule "timeouts" Timeouts Ceiling 0.0;
    rule "drift-rate" Drift_rate Ceiling 2.5;
    rule "journal-lag" Journal_lag Ceiling 512.0;
    rule "overload-share" Overload_share Ceiling 50.0;
  ]

(* serialization ----------------------------------------------------------- *)

let shape_error what = raise (Obs.Json.Parse_error ("alerts: bad " ^ what))

let get_num what j =
  match Obs.Json.member what j with Some (Obs.Json.Num x) -> x | _ -> shape_error what

let get_str what j =
  match Obs.Json.member what j with Some (Obs.Json.Str s) -> s | _ -> shape_error what

let rule_to_json (r : rule) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str r.name);
      ("signal", Obs.Json.Str r.signal);
      (Obs.Gate.op_label r.op, Obs.Json.Num r.bound);
      ("for_epochs", Obs.Json.Num (float_of_int r.streak));
    ]

let rules_to_json rules =
  Obs.Envelope.obj ~kind:"nebby_alert_rules" ~version:schema_version
    [
      ("rules", Obs.Json.Arr (List.map rule_to_json rules));
    ]

let rule_of_json j =
  let name = get_str "name" j in
  let signal = get_str "signal" j in
  if signal_of_name signal = None then shape_error ("signal for rule " ^ name);
  let op, limit =
    match (Obs.Json.member "ceiling" j, Obs.Json.member "floor" j) with
    | Some (Obs.Json.Num l), None -> (Obs.Gate.Ceiling, l)
    | None, Some (Obs.Json.Num l) -> (Obs.Gate.Floor, l)
    | _ -> shape_error ("bound for rule " ^ name)
  in
  let streak =
    match Obs.Json.member "for_epochs" j with
    | None -> 1
    | Some (Obs.Json.Num n)
      when Float.is_integer n && n >= 1.0 && n <= float_of_int Obs.Gate.max_streak ->
      int_of_float n
    | Some _ -> shape_error ("for_epochs for rule " ^ name)
  in
  if name = "" then shape_error "empty rule name";
  Obs.Gate.make ~streak ~name signal op limit

let rules_of_json j =
  Obs.Envelope.check ~kind:"nebby_alert_rules" ~version:schema_version j;
  match Obs.Json.member "rules" j with
  | Some (Obs.Json.Arr rs) ->
    let rules = List.map rule_of_json rs in
    let names = List.map (fun (r : rule) -> r.name) rules in
    if List.length (List.sort_uniq compare names) <> List.length names then
      shape_error "duplicate rule names";
    rules
  | _ -> shape_error "rules"

let load_rules path =
  rules_of_json (Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all))

(* the engine -------------------------------------------------------------- *)

type t = Obs.Gate.watch (* sorted by rule name *)

let create rules =
  Obs.Gate.watch (List.sort (fun (a : rule) b -> compare a.name b.name) rules)

type action = Obs.Gate.edge = Fire | Resolve

type transition = {
  epoch : int;
  rule : string;
  action : action;
  value : float;
  limit : float;
}

let transition_to_json tr =
  Obs.Envelope.obj ~kind:"nebby_alert" ~version:schema_version
    [
      ("epoch", Obs.Json.Num (float_of_int tr.epoch));
      ("rule", Obs.Json.Str tr.rule);
      ("action", Obs.Json.Str (match tr.action with Fire -> "fire" | Resolve -> "resolve"));
      ("value", Obs.Json.Num tr.value);
      ("limit", Obs.Json.Num tr.limit);
    ]

let transition_of_json j =
  Obs.Envelope.check ~kind:"nebby_alert" ~version:schema_version j;
  {
    epoch = int_of_float (get_num "epoch" j);
    rule = get_str "rule" j;
    action =
      (match get_str "action" j with
      | "fire" -> Fire
      | "resolve" -> Resolve
      | _ -> shape_error "action");
    value = get_num "value" j;
    limit = get_num "limit" j;
  }

let signal_values ?health ?point ?(events = []) () signal =
  match signal with
  | Unknown_share -> (
    match point with Some p -> p.Obs.Drift.unknown_share | None -> 0.0)
  | Mean_confidence -> (
    match point with Some p -> p.Obs.Drift.mean_confidence | None -> 0.0)
  | Mean_margin -> (match point with Some p -> p.Obs.Drift.mean_margin | None -> 0.0)
  | Timeouts -> (
    match point with Some p -> float_of_int p.Obs.Drift.timeouts | None -> 0.0)
  | Drift_rate ->
    List.fold_left
      (fun acc e ->
        Float.max acc
          (match e with
          | Obs.Drift.Emerged { rate_per_epoch; _ }
          | Obs.Drift.Collapsed { rate_per_epoch; _ }
          | Obs.Drift.Migration { rate_per_epoch; _ } ->
            rate_per_epoch))
      0.0 events
  | Journal_lag -> (
    match health with Some h -> float_of_int h.Health.journal_lag | None -> 0.0)
  | Overload_share -> (
    match health with
    | Some h ->
      let denom = h.Health.overloads + h.Health.measured in
      if denom = 0 then 0.0
      else 100.0 *. float_of_int h.Health.overloads /. float_of_int denom
    | None -> 0.0)

let evaluate t ~epoch ~signal_value =
  let lookup name = Option.map signal_value (signal_of_name name) in
  List.map
    (fun (action, (r : Obs.Gate.result)) ->
      {
        epoch;
        rule = r.gate.name;
        action;
        value = Option.value ~default:Float.nan r.value;
        limit = r.gate.bound;
      })
    (Obs.Gate.observe t lookup)

let firing = Obs.Gate.firing

let gauges t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# HELP nebby_alert 1 while the named alert rule is firing.\n";
  Buffer.add_string buf "# TYPE nebby_alert gauge\n";
  List.iter
    (fun (name, on) ->
      Buffer.add_string buf
        (Printf.sprintf "nebby_alert{rule=\"%s\"} %d\n" name (if on then 1 else 0)))
    (firing t);
  Buffer.contents buf
