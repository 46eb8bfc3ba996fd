(* Interchange neutrality: transposing is legal to reorder but neither
   order beats the other (one long-stride reference either way), so the
   pass keeps the source order.

     dune exec examples/transpose.exe *)

let source = Sources.transpose

let () =
  let report = Some (fun line -> Printf.printf "[report] %s\n" line) in
  let _, stats = Vpc.compile ~options:{ Vpc.o3 with Vpc.report = report } source in
  Printf.printf "nests interchanged: %d (expected 0 — no profitable order)\n"
    stats.Vpc.interchange.nests_interchanged
