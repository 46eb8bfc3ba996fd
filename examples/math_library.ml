(* Procedure catalogs (§7): "math libraries can be 'compiled' into
   databases and used as a base for inlining, much as include directories
   are used as a source for header files."

   This example compiles a small math library into a catalog file, then
   compiles a client program against it: the client only declares the
   prototypes, yet the calls inline across the "file" boundary and the
   loop vectorizes.

     dune exec examples/math_library.exe *)

let library_source =
  {|
/* a miniature libm/BLAS, compiled once into a catalog */
static float half = 0.5f;

float lerp(float a, float b, float t) { return a + (b - a) * t; }
float sq(float x) { return x * x; }
float midpoint(float a, float b) { return lerp(a, b, half); }
|}

let client_source =
  {|
float lerp(float a, float b, float t);
float sq(float x);
float midpoint(float a, float b);

float xs[256], ys[256], zs[256];

int main()
{
  int i;
  float s;
  for (i = 0; i < 256; i++) { xs[i] = i * 0.1f; ys[i] = 25.6f - i * 0.1f; }
  for (i = 0; i < 256; i++)
    zs[i] = sq(midpoint(xs[i], ys[i]));
  s = 0;
  for (i = 0; i < 256; i++) s += zs[i];
  printf("sum=%g z0=%g\n", s, zs[0]);
  return 0;
}
|}

let () =
  (* "compile" the library into a catalog *)
  let library, _ = Vpc.compile ~options:Vpc.o0 library_source in
  let catalog_file = Filename.temp_file "mathlib" ".vcat" in
  Vpc.Inline.Catalog.save library catalog_file;
  Printf.printf "library catalog written to %s (%d bytes)\n" catalog_file
    (Unix.stat catalog_file).Unix.st_size;

  (* compile the client against it *)
  let options = { Vpc.o3 with Vpc.catalogs = [ catalog_file ] } in
  let prog, stats = Vpc.compile ~options client_source in
  Sys.remove catalog_file;

  Printf.printf "calls inlined across the catalog boundary: %d\n"
    stats.inline.calls_inlined;
  Printf.printf "loops vectorized: %d\n\n" stats.vectorize.loops_vectorized;
  print_endline "=== main after cross-file inlining + vectorization ===";
  print_string
    (Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main"));

  let r =
    Vpc.run_titan
      ~config:{ Vpc.Titan.Machine.default_config with procs = 2 }
      prog
  in
  Printf.printf "\n%s(%d cycles, %.2f MFLOPS on 2 processors)\n" r.stdout_text
    r.metrics.cycles r.mflops_rate;

  (* the same client with calls left in place, for contrast — the catalog
     file is gone, so merge the library program in directly *)
  let client2 = Vpc.parse client_source in
  Vpc.Inline.Catalog.import ~into:client2 library;
  ignore (Vpc.optimize ~options:{ Vpc.o3 with Vpc.off = [ `Inline ] } client2);
  let r2 = Vpc.run_titan client2 in
  Printf.printf "without inlining: %d cycles (%.1fx slower)\n"
    r2.metrics.cycles
    (float_of_int r2.metrics.cycles /. float_of_int r.metrics.cycles)
