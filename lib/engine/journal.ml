(* The durable journal behind `nebby serve`: append-only CRC-framed
   records under a schema-versioned header, torn-tail repair on open,
   canonical compaction. See journal.mli for the contract; the invariants
   that matter here are (1) every put is flushed, so a crash loses at most
   the record being written, and (2) compaction output is a pure function
   of the live key/value map, so recovery and re-runs converge to
   byte-identical files. *)

let schema_version = 1
let kind = "nebby_journal"

(* CRC-32 (IEEE, reflected), table-driven. Implemented locally: the
   container has no checksum library and the journal only needs a cheap,
   stable frame check to tell a torn write from a good record. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let header_line =
  Obs.Json.to_string (Obs.Envelope.obj ~kind ~version:schema_version []) ^ "\n"

let payload_of ~key ~value =
  Obs.Json.to_string (Obs.Json.Obj [ ("key", Obs.Json.Str key); ("value", Obs.Json.Str value) ])

let frame payload = Printf.sprintf "%08x %s\n" (crc32 payload) payload

let jfail what = raise (Obs.Json.Parse_error ("journal: " ^ what))

let jstr j = match Obs.Json.to_str j with Some s -> s | None -> jfail "expected a string"

let jmember k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> jfail (Printf.sprintf "missing field %S" k)

(* payload -> (key, value); raises Json.Parse_error on shape mismatch *)
let parse_payload payload =
  let j = Obs.Json.of_string payload in
  (jstr (jmember "key" j), jstr (jmember "value" j))

type t = {
  path : string;
  mutable oc : out_channel option;  (* append channel; None after close *)
  index : (string, int * int) Hashtbl.t;  (* key -> (payload offset, payload length) *)
  cache : (string, string) Hashtbl.t;
  cache_order : string Queue.t;  (* FIFO eviction order when bounded *)
  max_entries : int option;
  mutable size : int;  (* file length in bytes; next record's offset *)
  mutable torn : int;  (* tail records dropped on open *)
  lock : Mutex.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path t = t.path
let torn_dropped t = t.torn

let cache_add t key value =
  match t.max_entries with
  | None -> Hashtbl.replace t.cache key value
  | Some m ->
    let m = max 1 m in
    Hashtbl.replace t.cache key value;
    Queue.push key t.cache_order;
    while Hashtbl.length t.cache > m && not (Queue.is_empty t.cache_order) do
      (* FIFO with possible duplicate queue entries: evicting a key that
         was re-put recently only costs a disk re-read later, never
         correctness *)
      Hashtbl.remove t.cache (Queue.pop t.cache_order)
    done

(* hex frame check: 8 lowercase hex digits, a space, then the payload *)
let parse_frame line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then None
  else
    match int_of_string ("0x" ^ String.sub line 0 8) with
    | crc ->
      let payload = String.sub line 9 (n - 9) in
      if crc = crc32 payload then Some payload else None
    | exception _ -> None

let write_all path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let count_dropped_records text from =
  (* a torn tail is usually one partial record, but a corrupt line drops
     everything after it too; count line starts so the warning is honest *)
  let n = ref 0 in
  let i = ref from in
  let len = String.length text in
  while !i < len do
    incr n;
    i := (match String.index_from_opt text !i '\n' with Some nl -> nl + 1 | None -> len)
  done;
  !n

let open_append path = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_ ?max_entries ?(on_warning = fun msg -> Printf.eprintf "%s\n%!" msg) path =
  let t =
    {
      path;
      oc = None;
      index = Hashtbl.create 256;
      cache = Hashtbl.create 256;
      cache_order = Queue.create ();
      max_entries;
      size = 0;
      torn = 0;
      lock = Mutex.create ();
    }
  in
  let text =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  if text = "" then begin
    write_all path header_line;
    t.size <- String.length header_line
  end
  else begin
    (* header: must be a complete line with the right kind and version *)
    let header_end =
      match String.index_opt text '\n' with
      | Some nl -> nl + 1
      | None -> jfail (path ^ ": header line is incomplete")
    in
    Obs.Envelope.check ~kind ~version:schema_version
      (Obs.Json.of_string (String.sub text 0 (header_end - 1)));
    (* replay records; stop at the first torn/corrupt one *)
    let len = String.length text in
    let pos = ref header_end in
    let good_end = ref header_end in
    let torn = ref false in
    while (not !torn) && !pos < len do
      match String.index_from_opt text !pos '\n' with
      | None -> torn := true (* no trailing newline: the write was cut mid-record *)
      | Some nl -> (
        let line = String.sub text !pos (nl - !pos) in
        match Option.map parse_payload (parse_frame line) with
        | Some (key, _) ->
          Hashtbl.replace t.index key (!pos + 9, String.length line - 9);
          pos := nl + 1;
          good_end := !pos
        | None | (exception Obs.Json.Parse_error _) -> torn := true)
    done;
    if !torn then begin
      let dropped = count_dropped_records text !good_end in
      t.torn <- dropped;
      on_warning
        (Printf.sprintf
           "journal %s: dropped %d torn tail record(s) (%d bytes at offset %d); resuming \
            from the last good record"
           path dropped (len - !good_end) !good_end);
      write_all path (String.sub text 0 !good_end);
      t.size <- !good_end
    end
    else t.size <- len
  end;
  t.oc <- Some (open_append path);
  t

let appender t =
  match t.oc with Some oc -> oc | None -> failwith ("journal " ^ t.path ^ " is closed")

let put t ~key ~value =
  with_lock t (fun () ->
      let oc = appender t in
      let payload = payload_of ~key ~value in
      output_string oc (frame payload);
      flush oc;
      Hashtbl.replace t.index key (t.size + 9, String.length payload);
      t.size <- t.size + String.length payload + 10;
      cache_add t key value)

(* Cache misses re-read the framed line from disk and re-verify the CRC:
   the frame was checked when the record entered the index, so a mismatch
   here means the file changed under us. *)
let read_from_disk t key off len =
  let line =
    In_channel.with_open_bin t.path (fun ic ->
        seek_in ic (off - 9);
        really_input_string ic (len + 9))
  in
  match Option.map parse_payload (parse_frame line) with
  | Some (k, v) when k = key -> v
  | _ -> failwith (Printf.sprintf "journal %s: record for %S is corrupt on disk" t.path key)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.cache key with
      | Some v -> Some v
      | None -> (
        match Hashtbl.find_opt t.index key with
        | None -> None
        | Some (off, len) ->
          let v = read_from_disk t key off len in
          cache_add t key v;
          Some v))

let mem t key = with_lock t (fun () -> Hashtbl.mem t.index key)
let length t = with_lock t (fun () -> Hashtbl.length t.index)

let sorted_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.index [])

let keys t = with_lock t (fun () -> sorted_keys t)

let value_locked t key =
  match Hashtbl.find_opt t.cache key with
  | Some v -> v
  | None ->
    let off, len = Hashtbl.find t.index key in
    read_from_disk t key off len

let fold f t init =
  with_lock t (fun () ->
      List.fold_left (fun acc k -> f k (value_locked t k) acc) init (sorted_keys t))

let compact t =
  with_lock t (fun () ->
      let oc = appender t in
      (* materialize every live pair before touching the file *)
      let pairs = List.map (fun k -> (k, value_locked t k)) (sorted_keys t) in
      close_out_noerr oc;
      t.oc <- None;
      let tmp = t.path ^ ".compact" in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf header_line;
      Hashtbl.reset t.index;
      let pos = ref (String.length header_line) in
      List.iter
        (fun (key, value) ->
          let payload = payload_of ~key ~value in
          Buffer.add_string buf (frame payload);
          Hashtbl.replace t.index key (!pos + 9, String.length payload);
          pos := !pos + String.length payload + 10)
        pairs;
      write_all tmp (Buffer.contents buf);
      Sys.rename tmp t.path;
      t.size <- !pos;
      t.oc <- Some (open_append t.path))

let close t =
  with_lock t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        flush oc;
        close_out_noerr oc;
        t.oc <- None)
