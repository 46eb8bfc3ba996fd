(* The little JSON the benchmark speaks: it writes its result line,
   per-program rows and spans, and reads BENCHMARK.json and the result
   lines of the runs [--repeat] starts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print as integers; others with every digit a double
   carries, so a measured time never reads as a rounded constant. *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num_to_string x
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let i = ref 0 in
  let fail m = raise (Parse_error (Printf.sprintf "%s at byte %d" m !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    then (incr i; ws ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c) in
  let lit word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then (i := !i + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      match s.[!i] with
      | '"' -> incr i
      | '\\' ->
          if !i + 1 >= n then fail "bad escape";
          (match s.[!i + 1] with
          | 'n' -> Buffer.add_char b '\n'; i := !i + 2
          | 't' -> Buffer.add_char b '\t'; i := !i + 2
          | 'r' -> Buffer.add_char b '\r'; i := !i + 2
          | 'b' -> Buffer.add_char b '\b'; i := !i + 2
          | 'f' -> Buffer.add_char b '\012'; i := !i + 2
          | 'u' when !i + 5 < n ->
              let code = int_of_string ("0x" ^ String.sub s (!i + 2) 4) in
              Buffer.add_utf_8_uchar b (Uchar.of_int code);
              i := !i + 6
          | c -> Buffer.add_char b c; i := !i + 2);
          go ()
      | c -> Buffer.add_char b c; incr i; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec members acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec elems acc =
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; elems (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          elems []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !i in
        while
          !i < n
          && match s.[!i] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some x -> Num x
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing input";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_num = function Num x -> x | _ -> nan
let to_str = function Str s -> s | _ -> ""
