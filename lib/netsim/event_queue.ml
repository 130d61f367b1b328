(* A binary min-heap kept as three parallel arrays (times, FIFO orders,
   values) so that pushing and popping allocate nothing beyond the
   occasional doubling: no entry record per push, no option or tuple per
   pop. [values] is empty until the first push supplies a filler value. *)
type 'a t = {
  mutable times : float array;
  mutable orders : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_order : int;
}

let create () = { times = [||]; orders = [||]; values = [||]; size = 0; next_order = 0 }
let is_empty t = t.size = 0
let length t = t.size

let earlier t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.orders i < Array.unsafe_get t.orders j)

(* Moves slot [src] to slot [dst]. *)
let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.orders dst (Array.unsafe_get t.orders src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let grow t filler =
  let capacity = max 16 (2 * Array.length t.times) in
  let times = Array.make capacity 0.0 in
  let orders = Array.make capacity 0 in
  let values = Array.make capacity filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.orders 0 orders 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.orders <- orders;
  t.values <- values

(* Hole-based sifts: the moving element is held in locals and written
   once, at its final slot. *)
let push t ~time value =
  if t.size >= Array.length t.times then grow t value;
  let order = t.next_order in
  t.next_order <- order + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get t.times parent in
    if time < tp || (time = tp && order < Array.unsafe_get t.orders parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.orders !i order;
  Array.unsafe_set t.values !i value

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  Array.unsafe_get t.times 0

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
  let top = Array.unsafe_get t.values 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift the last element down from the root *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let child = if r < last && earlier t r l then r else l in
        if earlier t child last then begin
          move t ~src:child ~dst:!i;
          i := child
        end
        else continue := false
      end
    done;
    move t ~src:last ~dst:!i
  end;
  top

let pop t =
  if t.size = 0 then None
  else
    let time = min_time t in
    Some (time, pop_exn t)

let peek_time t = if t.size = 0 then None else Some (min_time t)
