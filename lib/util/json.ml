exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* A minimal recursive-descent parser: objects, arrays, strings (with
   escaped quote, backslash, slash, n, t and r), numbers, null, bools. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let len = String.length lit in
    if !pos + len <= n && String.equal (String.sub s !pos len) lit then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | c -> fail (Printf.sprintf "unsupported escape \\%c" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "malformed number")
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let field name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field \"" ^ name ^ "\"")))
  | Null | Bool _ | Num _ | Str _ | Arr _ ->
      raise (Parse_error "expected an object")

let to_float = function
  | Num f -> f
  | Null -> nan
  | Bool _ | Str _ | Arr _ | Obj _ -> raise (Parse_error "expected a number")

let to_int = function
  | Num f when Float.is_integer f -> int_of_float f
  | Null | Bool _ | Num _ | Str _ | Arr _ | Obj _ ->
      raise (Parse_error "expected an integer")

let to_bool = function
  | Bool b -> b
  | Null | Num _ | Str _ | Arr _ | Obj _ ->
      raise (Parse_error "expected a bool")

let to_string = function
  | Str s -> s
  | Null | Bool _ | Num _ | Arr _ | Obj _ ->
      raise (Parse_error "expected a string")

let to_list = function
  | Arr l -> l
  | Null | Bool _ | Num _ | Str _ | Obj _ ->
      raise (Parse_error "expected an array")

