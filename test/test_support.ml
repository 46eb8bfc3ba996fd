(* Unit and property tests for the support library: sexp printing and
   parsing, bitsets, gensyms. *)

open Vpc.Support

let sexp_roundtrip () =
  let cases =
    [
      Sexp.Atom "hello";
      Sexp.List [];
      Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b c"; Sexp.Atom "" ];
      Sexp.List [ Sexp.List [ Sexp.Atom "nested" ]; Sexp.Atom "x\"y\\z" ];
      Sexp.List [ Sexp.Atom "line\nbreak"; Sexp.Atom "tab\there" ];
      (* the reader ends a bare atom at a carriage return *)
      Sexp.Atom "carriage\rreturn";
      Sexp.int 42;
      Sexp.float 3.25;
      Sexp.bool true;
    ]
  in
  List.iter
    (fun s ->
      let text = Sexp.to_string s in
      let back = Sexp.of_string text in
      if back <> s then
        Alcotest.failf "sexp roundtrip failed for %s" text)
    cases

let sexp_comments () =
  let s = Sexp.of_string "(a ; comment here\n b)" in
  Alcotest.(check bool) "comment skipped"
    true
    (s = Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ])

let sexp_errors () =
  List.iter
    (fun text ->
      match Sexp.of_string text with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" text)
    [ "("; ")"; "(a"; "\"unterminated"; "a b" (* trailing garbage *) ]

let sexp_prop =
  let rec gen_sexp depth st =
    if depth = 0 || QCheck.Gen.int_bound 2 st = 0 then
      Sexp.Atom (QCheck.Gen.string_size ~gen:QCheck.Gen.printable (QCheck.Gen.int_bound 8) st)
    else
      Sexp.List
        (QCheck.Gen.list_size (QCheck.Gen.int_bound 4) (gen_sexp (depth - 1)) st)
  in
  QCheck.Test.make ~count:200 ~name:"sexp print/parse roundtrip"
    (QCheck.make (gen_sexp 4))
    (fun s -> Sexp.of_string (Sexp.to_string s) = s)

let bitset_basics () =
  let b = Bitset.create 70 in
  Alcotest.(check bool) "initially empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 69;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 69" true (Bitset.mem b 69);
  Alcotest.(check bool) "not mem 5" false (Bitset.mem b 5);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "elements" [ 0; 69 ] (Bitset.elements b)

let bitset_union_transfer () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.add b 1;
  let changed = Bitset.union_into a b in
  Alcotest.(check bool) "union changed" true changed;
  Alcotest.(check (list int)) "union" [ 1; 2 ] (Bitset.elements a);
  let changed2 = Bitset.union_into a b in
  Alcotest.(check bool) "union idempotent" false changed2;
  let gen = Bitset.create 16 and kill = Bitset.create 16 in
  Bitset.add gen 5;
  Bitset.add kill 1;
  Bitset.transfer ~gen ~kill a;
  Alcotest.(check (list int)) "transfer" [ 2; 5 ] (Bitset.elements a)

(* Bitset against a [bool array] model: random operation sequences over
   three sets of one size, with sizes straddling the word boundaries. *)
type bitset_op =
  | Add of int * int          (* set, member *)
  | Remove of int * int
  | Union of int * int        (* dst, src *)
  | Diff of int * int
  | Transfer of int * int * int  (* gen, kill, dst *)
  | Blit of int * int         (* src, dst *)

let bitset_sizes = [ 0; 1; 62; 63; 64; 126; 127; 200 ]

let bitset_model_prop =
  let open QCheck.Gen in
  let set = int_bound 2 in
  let gen_case =
    oneofl bitset_sizes >>= fun size ->
    let member = int_bound (max 0 (size - 1)) in
    let op =
      let whole =
        [
          map2 (fun a b -> Union (a, b)) set set;
          map2 (fun a b -> Diff (a, b)) set set;
          map3 (fun g k a -> Transfer (g, k, a)) set set set;
          map2 (fun a b -> Blit (a, b)) set set;
        ]
      in
      if size = 0 then oneof whole
      else
        frequency
          ([
             (6, map2 (fun a i -> Add (a, i)) set member);
             (2, map2 (fun a i -> Remove (a, i)) set member);
           ]
          @ List.map (fun g -> (1, g)) whole)
    in
    map (fun ops -> (size, ops)) (list_size (int_range 1 60) op)
  in
  let print (size, ops) =
    Printf.sprintf "size %d, %d ops" size (List.length ops)
  in
  QCheck.Test.make ~count:300 ~name:"bitset matches bool-array model"
    (QCheck.make ~print gen_case)
    (fun (size, ops) ->
      let sets = Array.init 3 (fun _ -> Bitset.create size) in
      let model = Array.init 3 (fun _ -> Array.make size false) in
      let agrees k =
        let m = model.(k) and b = sets.(k) in
        let members =
          List.filter (fun i -> m.(i)) (List.init size Fun.id)
        in
        List.for_all (fun i -> Bitset.mem b i = m.(i)) (List.init size Fun.id)
        && Bitset.elements b = members
        && Bitset.cardinal b = List.length members
        && Bitset.is_empty b = (members = [])
      in
      List.for_all
        (fun op ->
          let returned_ok =
            match op with
            | Add (a, i) ->
                Bitset.add sets.(a) i;
                model.(a).(i) <- true;
                true
            | Remove (a, i) ->
                Bitset.remove sets.(a) i;
                model.(a).(i) <- false;
                true
            | Union (a, b) ->
                let before = Array.copy model.(a) in
                Array.iteri (fun i x -> if x then model.(a).(i) <- true) model.(b);
                Bitset.union_into sets.(a) sets.(b) = (before <> model.(a))
            | Diff (a, b) ->
                Bitset.diff_into sets.(a) sets.(b);
                Array.iteri (fun i x -> if x then model.(a).(i) <- false) model.(b);
                true
            | Transfer (g, k, a) ->
                Bitset.transfer ~gen:sets.(g) ~kill:sets.(k) sets.(a);
                let gen = Array.copy model.(g) and kill = Array.copy model.(k) in
                Array.iteri
                  (fun i x -> model.(a).(i) <- (x && not kill.(i)) || gen.(i))
                  model.(a);
                true
            | Blit (src, dst) ->
                Bitset.blit ~src:sets.(src) ~dst:sets.(dst);
                model.(dst) <- Array.copy model.(src);
                true
          in
          returned_ok
          && List.for_all agrees [ 0; 1; 2 ]
          && List.for_all
               (fun (a, b) ->
                 Bitset.equal sets.(a) sets.(b) = (model.(a) = model.(b)))
               [ (0, 1); (1, 2); (0, 2) ])
        ops)

let gensym_counters () =
  let g = Gensym.create () in
  Alcotest.(check int) "fresh 0" 0 (Gensym.fresh g);
  Alcotest.(check int) "fresh 1" 1 (Gensym.fresh g);
  Gensym.advance_past g 10;
  Alcotest.(check int) "past 10" 11 (Gensym.fresh g);
  let g2 = Gensym.create ~start:5 () in
  Alcotest.(check string) "named" "t5" (Gensym.fresh_name g2 "t")

let loc_merge () =
  let mk l c = { Loc.line = l; col = c } in
  let a = Loc.make ~file:"f.c" ~start_pos:(mk 1 1) ~end_pos:(mk 1 5) in
  let b = Loc.make ~file:"f.c" ~start_pos:(mk 2 1) ~end_pos:(mk 2 9) in
  let m = Loc.merge a b in
  Alcotest.(check int) "merged end line" 2 m.Loc.end_pos.Loc.line;
  Alcotest.(check bool) "dummy merge" true (Loc.merge Loc.dummy b == b);
  Alcotest.(check string) "to_string" "f.c:1:1" (Loc.to_string a)

let tests =
  [
    Alcotest.test_case "sexp roundtrip" `Quick sexp_roundtrip;
    Alcotest.test_case "sexp comments" `Quick sexp_comments;
    Alcotest.test_case "sexp errors" `Quick sexp_errors;
    QCheck_alcotest.to_alcotest sexp_prop;
    Alcotest.test_case "bitset basics" `Quick bitset_basics;
    Alcotest.test_case "bitset union/transfer" `Quick bitset_union_transfer;
    QCheck_alcotest.to_alcotest bitset_model_prop;
    Alcotest.test_case "gensym" `Quick gensym_counters;
    Alcotest.test_case "loc" `Quick loc_merge;
  ]
