(* In-memory spans and the per-layer waterfall built from them.

   A span is one interval of wall time on one lane (a domain) with an
   explicit parent. The waterfall hands every instant of the root span to
   the spans that are open at that instant and have no open child — the
   innermost work actually running. When several lanes run at once the
   instant is split evenly between their innermost spans, so the rows are
   wall-clock seconds and always sum, with the root's own uncovered time,
   to the root's duration. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  lane : int;  (** the domain (or pool worker) that ran it *)
  site : int;  (** population index, [-1] when the span is not a site's *)
  t0 : float;
  t1 : float;
}

type t = { mutable next : int; mutable spans : span list }

let create () = { next = 0; spans = [] }
let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ?id ?(parent = -1) ?(site = -1) ~lane ~name t0 t1 =
  let id = match id with Some id -> id | None -> fresh t in
  t.spans <- { id; parent; name; lane; site; t0; t1 } :: t.spans;
  id

let now = Unix.gettimeofday

(* Time [f] as a span of the main domain under [parent]. *)
let within t ?parent ~name f =
  let t0 = now () in
  let r = f () in
  ignore (add t ?parent ~lane:0 ~name t0 (now ()));
  r

let spans t = List.rev t.spans

(* One JSON object per span, in creation order. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"lane\": %d, \"site\": %d, \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.parent s.name s.lane s.site s.t0 s.t1)
        (spans t))

let duration s = s.t1 -. s.t0

(* Seconds of [root] attributed to each span name, plus the root's own
   share (time no other span covered), from a sweep over span edges. *)
let attribute ~root spans =
  let inside = List.filter (fun s -> s.id <> root.id) spans in
  let edges =
    List.concat_map
      (fun s ->
        let a = Float.max s.t0 root.t0 and b = Float.min s.t1 root.t1 in
        if b > a then [ (a, 1, s); (b, 0, s) ] else [])
      inside
    (* closes sort before opens at equal times *)
    |> List.sort (fun (ta, ka, _) (tb, kb, _) -> compare (ta, ka) (tb, kb))
  in
  let rows = Hashtbl.create 16 in
  let credit name dt =
    Hashtbl.replace rows name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt rows name))
  in
  let parents = Hashtbl.create 64 in
  let active = ref [] and own = ref 0.0 in
  let spend dt =
    if dt > 0.0 then
      match List.filter (fun s -> not (Hashtbl.mem parents s.id)) !active with
      | [] -> own := !own +. dt
      | leaves ->
        let share = dt /. float_of_int (List.length leaves) in
        List.iter (fun s -> credit s.name share) leaves
  in
  let last =
    List.fold_left
      (fun last (time, kind, s) ->
        spend (time -. last);
        let count delta =
          let n = delta + Option.value ~default:0 (Hashtbl.find_opt parents s.parent) in
          if n = 0 then Hashtbl.remove parents s.parent else Hashtbl.replace parents s.parent n
        in
        if kind = 1 then begin
          active := s :: !active;
          count 1
        end
        else begin
          active := List.filter (fun x -> x.id <> s.id) !active;
          count (-1)
        end;
        time)
      root.t0 edges
  in
  spend (root.t1 -. last);
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [] |> List.sort compare, !own)

(* Nearest-rank quantile of an unsorted sample; 0 for an empty one. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs
