(* A tuned per-nest configuration and its stable textual codec.  The
   field list is the persisted form: sorted, defaults omitted, values
   restricted to a tiny grammar (mode names, decimal strips, on/off) so
   the store stays diffable and the daemon can digest it. *)

type mode = Scalar | Vector | Parallel

type t = {
  mode : mode option;
  strip : int option;
  interchange : bool option;
  fuse : bool option;
  vreuse : bool option;
  doacross : bool option;
  inline_calls : (string * bool) list;
}

let default =
  {
    mode = None;
    strip = None;
    interchange = None;
    fuse = None;
    vreuse = None;
    doacross = None;
    inline_calls = [];
  }

let equal (a : t) (b : t) = a = b

let mode_name = function
  | Scalar -> "scalar"
  | Vector -> "vector"
  | Parallel -> "parallel"

let mode_of_name = function
  | "scalar" -> Scalar
  | "vector" -> Vector
  | "parallel" -> Parallel
  | s -> invalid_arg ("Tune.Config: bad mode " ^ s)

let onoff = function true -> "on" | false -> "off"

let bool_of_onoff = function
  | "on" -> true
  | "off" -> false
  | s -> invalid_arg ("Tune.Config: bad toggle " ^ s)

let to_fields t =
  let opt key render = function [] -> [] | [ v ] -> [ (key, render v) ] | _ -> [] in
  let fields =
    opt "mode" mode_name (Option.to_list t.mode)
    @ opt "strip" string_of_int (Option.to_list t.strip)
    @ opt "interchange" onoff (Option.to_list t.interchange)
    @ opt "fuse" onoff (Option.to_list t.fuse)
    @ opt "vreuse" onoff (Option.to_list t.vreuse)
    @ opt "doacross" onoff (Option.to_list t.doacross)
    @ List.map
        (fun (callee, b) -> ("inline:" ^ callee, onoff b))
        (List.sort compare t.inline_calls)
  in
  List.sort compare fields

let of_fields fields =
  List.fold_left
    (fun acc (key, v) ->
      match key with
      | "mode" -> { acc with mode = Some (mode_of_name v) }
      | "strip" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> { acc with strip = Some n }
          | _ -> invalid_arg ("Tune.Config: bad strip " ^ v))
      | "interchange" -> { acc with interchange = Some (bool_of_onoff v) }
      | "fuse" -> { acc with fuse = Some (bool_of_onoff v) }
      | "vreuse" -> { acc with vreuse = Some (bool_of_onoff v) }
      | "doacross" -> { acc with doacross = Some (bool_of_onoff v) }
      | _ ->
          let pfx = "inline:" in
          let pl = String.length pfx in
          if String.length key > pl && String.sub key 0 pl = pfx then
            let callee = String.sub key pl (String.length key - pl) in
            {
              acc with
              inline_calls =
                List.sort compare
                  ((callee, bool_of_onoff v)
                  :: List.remove_assoc callee acc.inline_calls);
            }
          else invalid_arg ("Tune.Config: unknown field " ^ key))
    default fields

let to_string t =
  match to_fields t with
  | [] -> "default"
  | fields ->
      String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)
