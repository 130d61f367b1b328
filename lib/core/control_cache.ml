type outcome = Hit | Miss of { reason : string; store_error : string option }

let default_dir () =
  let env name =
    match Sys.getenv_opt name with Some v when v <> "" -> Some v | _ -> None
  in
  match env "XDG_CACHE_HOME" with
  | Some d when not (Filename.is_relative d) -> Some (Filename.concat d "nebby")
  | _ ->
    Option.map (fun h -> Filename.concat (Filename.concat h ".cache") "nebby") (env "HOME")

let entry_path ~dir config =
  Filename.concat dir
    ("control-" ^ Digest.to_hex (Digest.string (Training.config_key config)) ^ ".jsonl")

let header ~key ~binary ~body =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("key", Obs.Json.Str key);
         ("binary", Obs.Json.Str binary);
         ("body", Obs.Json.Str (Digest.to_hex (Digest.string body)));
       ])

(* [Ok control], or [Error reason] for any entry that must not be used. *)
let load ~path ~key ~binary =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ when not (Sys.file_exists path) -> Error "no entry"
  | exception Sys_error msg -> Error msg
  | text -> (
    match String.index_opt text '\n' with
    | None -> Error "truncated entry"
    | Some i -> (
      let body = String.sub text (i + 1) (String.length text - i - 1) in
      let body =
        if String.ends_with ~suffix:"\n" body then String.sub body 0 (String.length body - 1)
        else body
      in
      match Obs.Json.of_string (String.sub text 0 i) with
      | exception Obs.Json.Parse_error msg -> Error ("bad header: " ^ msg)
      | h ->
        let field name = Option.bind (Obs.Json.member name h) Obs.Json.to_str in
        if field "key" <> Some key then Error "entry for another key"
        else if field "binary" <> Some binary then Error "entry from another binary"
        else if field "body" <> Some (Digest.to_hex (Digest.string body)) then
          Error "corrupt entry (body checksum)"
        else (
          match Training.of_json (Obs.Json.of_string body) with
          | control -> Ok control
          | exception Obs.Json.Parse_error msg -> Error ("bad body: " ^ msg)
          | exception Obs.Envelope.Version_mismatch { kind; expected; got } ->
            Error (Printf.sprintf "%s schema v%d, this build reads v%d" kind got expected))))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Write to a fresh temporary file beside the entry, then rename it over
   the entry: readers see the old entry or the new one, never a torn
   one, even with several writers. *)
let store ~dir ~path contents =
  match
    mkdir_p dir;
    Filename.temp_file ~temp_dir:dir "control-" ".tmp"
  with
  | exception Sys_error msg -> Some msg
  | tmp -> (
    try
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
      Sys.rename tmp path;
      None
    with Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Some msg)

let acquire ~dir ~binary config =
  let key = Training.config_key config in
  let cached =
    match dir with
    | None -> Error "no cache directory (neither XDG_CACHE_HOME nor HOME is set)"
    | Some dir ->
      Obs.Span.with_ ~name:"control.load" (fun () ->
          load ~path:(entry_path ~dir config) ~key ~binary)
  in
  match cached with
  | Ok control -> (control, Hit)
  | Error reason ->
    let control = Training.train_config config in
    let store_error =
      match dir with
      | None -> Some "no cache directory"
      | Some dir ->
        Obs.Span.with_ ~name:"control.store" (fun () ->
            let body = Obs.Json.to_string (Training.to_json control) in
            store ~dir ~path:(entry_path ~dir config)
              (header ~key ~binary ~body ^ "\n" ^ body ^ "\n"))
    in
    (control, Miss { reason; store_error })
