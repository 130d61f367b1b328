exception Version_mismatch of { kind : string; expected : int; got : int }

let obj ~kind ~version fields =
  Json.Obj
    (("kind", Json.Str kind) :: ("version", Json.Num (float_of_int version)) :: fields)

let check ~kind ~version j =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Json.Parse_error msg)) fmt in
  (match Json.member "kind" j with
  | Some (Json.Str k) when k = kind -> ()
  | Some (Json.Str k) -> fail "expected a %s record, found kind %S" kind k
  | _ -> fail "expected a %s record, found no kind" kind);
  match Json.member "version" j with
  | Some (Json.Num v) when Float.is_integer v ->
    let got = int_of_float v in
    if got <> version then raise (Version_mismatch { kind; expected = version; got })
  | Some v -> fail "%s: version %s is not an integer" kind (Json.to_string v)
  | None -> fail "%s: missing version" kind
