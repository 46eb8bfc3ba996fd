(* Dense mutable bitsets for dataflow IN/OUT vectors: one OCaml [int]
   word per [Sys.int_size] members.  Bits at or above [size] are always
   zero, so whole-word equality, union and counting need no masking. *)

type t = { words : int array; size : int }

let bits = Sys.int_size

let create size = { words = Array.make ((size + bits - 1) / bits) 0; size }

let copy t = { words = Array.copy t.words; size = t.size }

let mem t i =
  assert (i >= 0 && i < t.size);
  t.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let add t i =
  assert (i >= 0 && i < t.size);
  let w = i / bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits))

let remove t i =
  assert (i >= 0 && i < t.size);
  let w = i / bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits))

let equal a b = a.size = b.size && a.words = b.words

let blit ~src ~dst =
  assert (src.size = dst.size);
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

(* a := a ∪ b; returns true if a changed *)
let union_into a b =
  let changed = ref false in
  for i = 0 to Array.length a.words - 1 do
    let old = Array.unsafe_get a.words i in
    let nw = old lor b.words.(i) in
    if nw <> old then begin
      changed := true;
      Array.unsafe_set a.words i nw
    end
  done;
  !changed

(* a := a \ b *)
let diff_into a b =
  for i = 0 to Array.length a.words - 1 do
    Array.unsafe_set a.words i (Array.unsafe_get a.words i land lnot b.words.(i))
  done

(* a := (a \ kill) ∪ gen *)
let transfer ~gen ~kill a =
  for i = 0 to Array.length a.words - 1 do
    Array.unsafe_set a.words i
      (Array.unsafe_get a.words i land lnot kill.words.(i) lor gen.words.(i))
  done

let iter f t =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for j = 0 to bits - 1 do
          if word land (1 lsl j) <> 0 then f ((w * bits) + j)
        done)
    t.words

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let cardinal t =
  Array.fold_left
    (fun n word ->
      let rec pop w n = if w = 0 then n else pop (w land (w - 1)) (n + 1) in
      pop word n)
    0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words
