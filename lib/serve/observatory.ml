(* Journal -> Obs.Drift.ledger. See observatory.mli. *)

let epoch_of_key key =
  if String.length key < 2 || key.[0] <> 'e' then None
  else
    match String.index_opt key '|' with
    | None -> None
    | Some bar -> int_of_string_opt (String.sub key 1 (bar - 1))

(* A parsed verdict record, defaulting unreadable fields towards
   "unknown with zero confidence" — consistent with Service.decayed. *)
let parse_value value =
  match Obs.Json.of_string value with
  | exception Obs.Json.Parse_error _ -> ("unknown", 0.0, 0.0, false)
  | j ->
    let str k = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
    let num k =
      Option.value ~default:0.0 (Option.bind (Obs.Json.member k j) Obs.Json.to_float)
    in
    let timed_out =
      match Obs.Json.member "failures" j with
      | Some (Obs.Json.Arr fs) ->
        List.exists (function Obs.Json.Str "timeout" -> true | _ -> false) fs
      | _ -> false
    in
    (Option.value ~default:"unknown" (str "label"), num "confidence", num "margin",
     timed_out)

let point_of_values ~epoch values =
  let counts = Hashtbl.create 16 in
  let hosts = ref 0 and unknown = ref 0 and timeouts = ref 0 in
  let conf_sum = ref 0.0 and margin_sum = ref 0.0 in
  List.iter
    (fun value ->
      let label, confidence, margin, timed_out = parse_value value in
      let cls = Internet.Census_history.class_of_label label in
      incr hosts;
      conf_sum := !conf_sum +. confidence;
      margin_sum := !margin_sum +. margin;
      if timed_out then incr timeouts;
      if cls = "Unclassified" then incr unknown;
      Hashtbl.replace counts cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls)))
    values;
  let pct n = if !hosts = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int !hosts in
  let mean s = if !hosts = 0 then 0.0 else s /. float_of_int !hosts in
  {
    Obs.Drift.epoch;
    hosts = !hosts;
    shares =
      Hashtbl.fold (fun cls n acc -> (cls, pct n) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    unknown_share = pct !unknown;
    mean_confidence = mean !conf_sum;
    mean_margin = mean !margin_sum;
    timeouts = !timeouts;
  }

let ledger_of_journal ~subject journal =
  let by_epoch = Hashtbl.create 16 in
  Engine.Journal.fold
    (fun key value () ->
      match epoch_of_key key with
      | None -> ()
      | Some epoch ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_epoch epoch) in
        (* fold visits keys ascending; cons + final reverse keeps that order *)
        Hashtbl.replace by_epoch epoch (value :: prev))
    journal ();
  let epochs =
    List.sort compare (Hashtbl.fold (fun e _ acc -> e :: acc) by_epoch [])
  in
  Obs.Drift.make ~subject
    (List.map
       (fun epoch ->
         point_of_values ~epoch (List.rev (Hashtbl.find by_epoch epoch)))
       epochs)

let ledger_of_store ~store =
  (* a reader: opening a journal creates it, so refuse a missing path first *)
  if not (Sys.file_exists store) then
    raise (Sys_error (store ^ ": No such file or directory"));
  let journal = Engine.Journal.open_ store in
  Fun.protect
    ~finally:(fun () -> Engine.Journal.close journal)
    (fun () -> ledger_of_journal ~subject:(Filename.basename store) journal)
