(* Threshold gates. See gate.mli. *)

type op = Floor | Ceiling
type status = Pass | Fail | Skip

type t = {
  name : string;
  signal : string;
  op : op;
  bound : float;
  streak : int;
  absent : status;
}

let make ?(streak = 1) ?(absent = Skip) ~name signal op bound =
  { name; signal; op; bound; streak; absent }

let max_streak = 1_000_000

let check g = function
  | None -> g.absent
  | Some v when not (Float.is_finite v) -> Fail
  | Some v -> (
    match g.op with
    | Floor -> if v >= g.bound then Pass else Fail
    | Ceiling -> if v <= g.bound then Pass else Fail)

let call signal =
  let n = String.length signal in
  match String.index_opt signal '(' with
  | Some i when n > i + 2 && signal.[n - 1] = ')' ->
    Some (String.sub signal 0 i, String.sub signal (i + 1) (n - i - 2))
  | _ -> None

let op_label = function Floor -> "floor" | Ceiling -> "ceiling"
let status_label = function Pass -> "pass" | Fail -> "fail" | Skip -> "skip"

let describe g =
  Printf.sprintf "%s %s %.6g" g.signal
    (match g.op with Floor -> ">=" | Ceiling -> "<=")
    g.bound

type result = { gate : t; value : float option; status : status }

let result lookup gate =
  let value = lookup gate.signal in
  { gate; value; status = check gate value }

let evaluate gates lookup = List.map (result lookup) gates
let passed results = List.for_all (fun r -> r.status <> Fail) results

let line r =
  Printf.sprintf "  [%s] %-26s %-34s %s\n"
    (String.uppercase_ascii (status_label r.status))
    r.gate.name (describe r.gate)
    (match r.value with Some v -> Printf.sprintf "value %.6g" v | None -> "(metric absent)")

(* ---- streaks ---- *)

type cell = { gate : t; mutable breaches : int; mutable on : bool }
type watch = cell list
type edge = Fire | Resolve

let watch gates = List.map (fun gate -> { gate; breaches = 0; on = false }) gates

let observe w lookup =
  List.filter_map
    (fun c ->
      let r = result lookup c.gate in
      if r.status = Fail then begin
        (* saturate at the streak: a breach that lasts forever never wraps *)
        c.breaches <- min (c.breaches + 1) c.gate.streak;
        if (not c.on) && c.breaches >= c.gate.streak then begin
          c.on <- true;
          Some (Fire, r)
        end
        else None
      end
      else begin
        c.breaches <- 0;
        if c.on then begin
          c.on <- false;
          Some (Resolve, r)
        end
        else None
      end)
    w

let firing w = List.map (fun (c : cell) -> (c.gate.name, c.on)) w
