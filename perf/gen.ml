(* Seeded input generators for the four benchmark workloads.

   Everything the benchmark measures is generated here from [--seed]; the
   compiler sees only the C text.  These are the benchmark's own
   parametric copies of the paper kernels, so edits to examples/ or to
   the bench experiments never change what is measured.

   What the seed draws, and what it does not.  The seed draws every
   floating-point constant (initial data, coefficients, the served
   monorepo's edit payloads), which monorepo unit each serve request
   reads or edits, and which function an edit touches.  Program shapes
   -- sizes, loop structure, procedure counts, call graphs and aliasing
   at call sites -- and the order of each pass's requests come from
   fixed schedules.  Seeds are therefore interchangeable samples of one
   workload: the simulated cycle counts and emitted code sizes are the
   same on every seed (no kernel branches on data), and host timings
   differ only by noise, which is what lets a handful of seeds bound
   run-to-run spread.  (A seeded order would move where garbage
   collection lands from seed to seed, and with it the percentiles and
   the peak heap.)
   Constants are dyadic fractions, so sums and products are exact or
   rounded identically however the optimizer orders independent
   statements. *)

(* ---- splitmix64: a stream that is identical on every platform ---- *)

type rng = { mutable s : int64 }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Independent streams per (seed, purpose): a new consumer of randomness
   never shifts the values another one draws. *)
let rng seed tag =
  let r = { s = Int64.of_int seed } in
  ignore (next r);
  r.s <- Int64.logxor r.s (Int64.of_int (Hashtbl.hash tag));
  ignore (next r);
  r

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let uniform r =
  Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The order of pass [k]'s requests: a fixed shuffle, the same on every
   seed. *)
let pass_order k = rng 0 ("pass", k)

(* A dyadic constant in (0, 2), never 0, 1 or 2, so no algebraic
   identity can fold it away and change the code. *)
let dyadic r =
  let choices =
    [| 0.125; 0.25; 0.375; 0.625; 0.75; 0.875; 1.125; 1.25; 1.375; 1.625;
       1.75; 1.875 |]
  in
  choices.(int r (Array.length choices))

(* A dyadic constant in (0, 1): a contraction keeps repeated updates
   bounded. *)
let small r = [| 0.125; 0.25; 0.375; 0.625; 0.75; 0.875 |].(int r 6)

(* C literals: a double, and a float with the [f] suffix.  Every literal
   is sixteen characters, so a program's source has the same length on
   every seed and the compiler allocates exactly the same: the garbage
   collector then runs at the same points, and the peak heap does not
   move with the seed.  The constants are dyadic with at most eight
   fractional digits, so the digits are exact. *)
let lit x =
  let whole = string_of_int (truncate x) in
  Printf.sprintf "%.*f" (15 - String.length whole) x

let litf x = lit x ^ "f"

(* ---- programs ---- *)

type program = {
  name : string;  (* unique within a corpus; the dump file is name ^ ".c" *)
  src : string;
}

let nl = String.concat "\n"

(* ---- paper-kernel families ----

   Each family is a function of a value stream and a size.  The first
   size of every family is the size of the matching file in examples/
   (matmul_ikj, which has none, takes a middle size), the second a
   different one.  Only constants come from the stream. *)

let backsolve r n =
  let cy = small r and cz = small r and cx = small r in
  nl
    [
      Printf.sprintf "float x[%d], y[%d], z[%d];" (n + 1) n n;
      "void backsolve(int n)";
      "{";
      "  float *p, *q;";
      "  int i;";
      "  p = &x[1];";
      "  q = &x[0];";
      "  for (i = 0; i < n - 2; i++)";
      "    p[i] = z[i] * (y[i] - q[i]);";
      "}";
      "int main()";
      "{";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i++) { y[i] = i * %s; z[i] = %s; }" n
        (litf cy) (litf cz);
      Printf.sprintf "  x[0] = %s;" (litf cx);
      Printf.sprintf "  backsolve(%d);" n;
      Printf.sprintf "  printf(\"x[1]=%%g x[%d]=%%g x[%d]=%%g\\n\", x[1], x[%d], x[%d]);"
        (n / 20) (n - 2) (n / 20) (n - 2);
      "  return 0;";
      "}";
    ]

let daxpy_inline r n =
  let cb = dyadic r and cc = dyadic r and alpha = dyadic r in
  nl
    [
      "void daxpy(float *x, float *y, float *z, float alpha, int n)";
      "{";
      "  if (n <= 0)";
      "    return;";
      "  if (alpha == 0)";
      "    return;";
      "  for (; n; n--)";
      "    *x++ = *y++ + alpha * *z++;";
      "}";
      Printf.sprintf "float a[%d], b[%d], c[%d];" n n n;
      "int main()";
      "{";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i++) { b[i] = i * %s; c[i] = i + %s; }"
        n (litf cb) (litf cc);
      Printf.sprintf "  daxpy(a, b, c, %s, %d);" (lit alpha) n;
      Printf.sprintf "  printf(\"a[0]=%%g a[1]=%%g a[%d]=%%g\\n\", a[0], a[1], a[%d]);"
        (n - 1) (n - 1);
      "  return 0;";
      "}";
    ]

(* graphics.c's structure-of-arrays transforms plus the vertex records of
   the struct-array case (§10): a 4-element loop over an array embedded
   in each structure. *)
let graphics r nv =
  (* the diagonal is above 1 and the rest below, so the two arms of the
     conditional never coincide (equal arms fold to one) *)
  let diag = 1.0 +. small r and off = small r and sx = small r and sy = small r
  and sz = small r and sc = small r in
  nl
    [
      Printf.sprintf "float xs[%d], ys[%d], zs[%d], ws[%d];" nv nv nv nv;
      Printf.sprintf "float txs[%d], tys[%d], tzs[%d], tws[%d];" nv nv nv nv;
      "float m[4][4];";
      "struct vertex { float pos[4]; float color[4]; };";
      Printf.sprintf "struct vertex vs[%d];" nv;
      "void transform_all()";
      "{";
      "  int v;";
      Printf.sprintf "  for (v = 0; v < %d; v++) {" nv;
      "    txs[v] = m[0][0] * xs[v] + m[0][1] * ys[v] + m[0][2] * zs[v] + m[0][3] * ws[v];";
      "    tys[v] = m[1][0] * xs[v] + m[1][1] * ys[v] + m[1][2] * zs[v] + m[1][3] * ws[v];";
      "    tzs[v] = m[2][0] * xs[v] + m[2][1] * ys[v] + m[2][2] * zs[v] + m[2][3] * ws[v];";
      "    tws[v] = m[3][0] * xs[v] + m[3][1] * ys[v] + m[3][2] * zs[v] + m[3][3] * ws[v];";
      "  }";
      "}";
      "float vin[4], vout[4];";
      "void transform_one()";
      "{";
      "  int i;";
      "  for (i = 0; i < 4; i++)";
      "    vout[i] = m[i][0] * vin[0] + m[i][1] * vin[1]";
      "            + m[i][2] * vin[2] + m[i][3] * vin[3];";
      "}";
      "void shade_all()";
      "{";
      "  int i, j;";
      Printf.sprintf "  for (i = 0; i < %d; i++)" nv;
      "    for (j = 0; j < 4; j++)";
      "      vs[i].pos[j] = vs[i].pos[j] * m[j][j] + vs[i].color[j];";
      "}";
      "int main()";
      "{";
      "  int i, j;";
      "  float checksum, shade;";
      "  for (i = 0; i < 4; i++)";
      "    for (j = 0; j < 4; j++)";
      Printf.sprintf "      m[i][j] = (i == j) ? %s : %s;" (litf diag) (litf off);
      Printf.sprintf "  for (i = 0; i < %d; i++) {" nv;
      Printf.sprintf "    xs[i] = i * %s;" (litf sx);
      Printf.sprintf "    ys[i] = i * %s;" (litf sy);
      Printf.sprintf "    zs[i] = i * %s;" (litf sz);
      "    ws[i] = 1.0f;";
      "    for (j = 0; j < 4; j++) {";
      Printf.sprintf "      vs[i].pos[j] = i * %s + j;" (litf sc);
      "      vs[i].color[j] = 0.5f * j;";
      "    }";
      "  }";
      "  transform_all();";
      "  for (i = 0; i < 4; i++) vin[i] = i + 1.0f;";
      "  transform_one();";
      "  shade_all();";
      "  checksum = 0.0;";
      "  shade = 0.0;";
      Printf.sprintf "  for (i = 0; i < %d; i++) {" nv;
      "    checksum += txs[i] + tys[i] + tzs[i] + tws[i];";
      "    shade += vs[i].pos[0] + vs[i].pos[3];";
      "  }";
      "  printf(\"checksum=%g shade=%g vout=[%g %g %g %g]\\n\", checksum, shade,";
      "         vout[0], vout[1], vout[2], vout[3]);";
      "  return 0;";
      "}";
    ]

let math_library r n =
  let half = small r and cx = small r and cy = small r in
  nl
    [
      Printf.sprintf "static float half = %s;" (litf half);
      "float lerp(float a, float b, float t) { return a + (b - a) * t; }";
      "float sq(float x) { return x * x; }";
      "float midpoint(float a, float b) { return lerp(a, b, half); }";
      Printf.sprintf "float xs[%d], ys[%d], zs[%d];" n n n;
      "int main()";
      "{";
      "  int i;";
      "  float s;";
      Printf.sprintf "  for (i = 0; i < %d; i++) { xs[i] = i * %s; ys[i] = %s - i * %s; }"
        n (litf cx) (litf (float_of_int n *. cy)) (litf cy);
      Printf.sprintf "  for (i = 0; i < %d; i++)" n;
      "    zs[i] = sq(midpoint(xs[i], ys[i]));";
      "  s = 0;";
      Printf.sprintf "  for (i = 0; i < %d; i++) s += zs[i];" n;
      "  printf(\"sum=%g z0=%g\\n\", s, zs[0]);";
      "  return 0;";
      "}";
    ]

(* examples/matmul.c is [matmul `Ijk r (48, 96, 96)] with the constants
   0.5 and 0.25; other constants leave every cycle count unchanged. *)
let matmul order r (n, k, m) =
  let ca = small r and cb = small r in
  let loops =
    match order with
    | `Ijk -> [ ("i", n); ("j", m); ("k", k) ]
    | `Ikj -> [ ("i", n); ("k", k); ("j", m) ]
  in
  nl
    ([
       Printf.sprintf "double a[%d][%d];" n k;
       Printf.sprintf "double b[%d][%d];" k m;
       Printf.sprintf "double c[%d][%d];" n m;
       "int main()";
       "{";
       "  int i, j, k;";
       Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
       Printf.sprintf "    for (k = 0; k < %d; k = k + 1)" k;
       Printf.sprintf "      a[i][k] = (double)(i + 2 * k) * %s;" (lit ca);
       Printf.sprintf "  for (k = 0; k < %d; k = k + 1)" k;
       Printf.sprintf "    for (j = 0; j < %d; j = j + 1)" m;
       Printf.sprintf "      b[k][j] = (double)(k + 3 * j) * %s;" (lit cb);
     ]
    @ List.mapi
        (fun d (v, hi) ->
          Printf.sprintf "%sfor (%s = 0; %s < %d; %s = %s + 1)"
            (String.make (2 * (d + 1)) ' ')
            v v hi v v)
        loops
    @ [
        "        c[i][j] = c[i][j] + a[i][k] * b[k][j];";
        Printf.sprintf "  printf(\"c[%d][%d]=%%g\\n\", c[%d][%d]);" (n / 2) (m / 2)
          (n / 2) (m / 2);
        "  return 0;";
        "}";
      ])

let ptrkernels r n =
  let ca = small r and cb = small r and a1 = small r and a2 = dyadic r in
  nl
    [
      "void saxpy(float *d, float *s, float alpha, int n)";
      "{";
      "  int i;";
      "  for (i = 0; i < n; i++)";
      "    d[i] = d[i] + alpha * s[i];";
      "}";
      "float dot(float *x, float *y, int n)";
      "{";
      "  int i;";
      "  float acc;";
      "  acc = 0.0f;";
      "  for (i = 0; i < n; i++)";
      "    acc = acc + x[i] * y[i];";
      "  return acc;";
      "}";
      Printf.sprintf "float a[%d], b[%d], c[%d];" n n n;
      "int main()";
      "{";
      "  int i;";
      "  float s;";
      Printf.sprintf "  for (i = 0; i < %d; i++) {" n;
      Printf.sprintf "    a[i] = i * %s;" (litf ca);
      Printf.sprintf "    b[i] = (%d - i) * %s;" n (litf cb);
      "    c[i] = 1.0f;";
      "  }";
      Printf.sprintf "  saxpy(a, b, %s, %d);" (litf a1) n;
      Printf.sprintf "  saxpy(c, b, %s, %d);" (litf a2) n;
      Printf.sprintf "  s = dot(a, c, %d);" n;
      Printf.sprintf "  printf(\"a[0]=%%g a[%d]=%%g c[%d]=%%g s=%%g\\n\", a[0], a[%d], c[%d], s);"
        (n - 1) (n / 2) (n - 1) (n / 2);
      "  return 0;";
      "}";
    ]

(* examples/quickstart.c: two vectorizable loops over global arrays *)
let vector_add r n =
  let cb = small r and cs = dyadic r in
  nl
    [
      Printf.sprintf "float a[%d], b[%d], c[%d];" n n n;
      "int main()";
      "{";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i++) {" n;
      Printf.sprintf "    b[i] = i * %s;" (litf cb);
      Printf.sprintf "    c[i] = %d - i;" n;
      "  }";
      Printf.sprintf "  for (i = 0; i < %d; i++)" n;
      Printf.sprintf "    a[i] = b[i] * %s + c[i];" (litf cs);
      Printf.sprintf "  printf(\"a[0]=%%g a[%d]=%%g a[%d]=%%g\\n\", a[0], a[%d], a[%d]);"
        (n / 2) (n - 1) (n / 2) (n - 1);
      "  return 0;";
      "}";
    ]

(* carried distance 8: doacross pipelining with one sync channel *)
let recurrence r n =
  let a0 = small r *. 0.5 and da = small r *. 0.125 in
  nl
    [
      Printf.sprintf "double a[%d];" (n + 104);
      "int main() {";
      "  int i;";
      "  double t, p;";
      "  for (i = 0; i < 8; i = i + 1)";
      Printf.sprintf "    a[i] = %s + (double)i * %s;" (lit a0) (lit da);
      Printf.sprintf "  for (i = 0; i < %d; i++) {" n;
      "    t = a[i];";
      "    p = (t * 0.5 + 1.0) * (t - 0.25) + (t * t) * 0.125;";
      "    p = p * (t * 0.0625 - 2.0) + (t + 3.0) * 0.75;";
      "    a[i + 8] = p * 0.125 + t * 0.875;";
      "  }";
      Printf.sprintf "  printf(\"a[%d]=%%g a[%d]=%%g\\n\", a[%d], a[%d]);" (n / 2)
        (n + 7) (n / 2) (n + 7);
      "  return 0;";
      "}";
    ]

let saxpy_chain r n =
  let cx = small r and cy = dyadic r and cz = dyadic r in
  nl
    [
      Printf.sprintf "double x[%d];" n;
      Printf.sprintf "double y[%d];" n;
      Printf.sprintf "double z[%d];" n;
      Printf.sprintf "double w[%d];" n;
      "int main()";
      "{";
      "  int i;";
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    x[i] = (double)(3 * i) * %s;" (lit cx);
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    y[i] = %s * x[i] + 1.0;" (lit cy);
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    z[i] = %s * x[i] + y[i];" (lit cz);
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      "    w[i] = z[i] - x[i];";
      Printf.sprintf
        "  printf(\"y[%d]=%%g z[%d]=%%g w[%d]=%%g\\n\", y[%d], z[%d], w[%d]);"
        (n / 3) (n / 2) (n - 1) (n / 3) (n / 2) (n - 1);
      "  return 0;";
      "}";
    ]

let stencil5 r (n, m) =
  let ci = small r and cw = small r in
  nl
    [
      Printf.sprintf "double in[%d][%d];" n m;
      Printf.sprintf "double out[%d][%d];" n m;
      Printf.sprintf "double diff[%d][%d];" n m;
      "int main()";
      "{";
      "  int i, j;";
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    for (j = 0; j < %d; j = j + 1)" m;
      Printf.sprintf "      in[i][j] = (double)(i * i + 3 * j) * %s;" (lit ci);
      Printf.sprintf "  for (i = 1; i < %d; i = i + 1)" (n - 1);
      Printf.sprintf "    for (j = 1; j < %d; j = j + 1)" (m - 1);
      Printf.sprintf
        "      out[i][j] = %s * (in[i][j] + in[i-1][j] + in[i+1][j] + in[i][j-1] + in[i][j+1]);"
        (lit cw);
      Printf.sprintf "  for (i = 1; i < %d; i = i + 1)" (n - 1);
      Printf.sprintf "    for (j = 1; j < %d; j = j + 1)" (m - 1);
      "      diff[i][j] = out[i][j] - in[i][j];";
      Printf.sprintf "  printf(\"out[%d][%d]=%%g diff[%d][%d]=%%g\\n\", out[%d][%d], diff[%d][%d]);"
        (n / 2) (m / 2) (n / 3) (m / 3) (n / 2) (m / 2) (n / 3) (m / 3);
      "  return 0;";
      "}";
    ]

let transpose r (n, m) =
  let ca = small r in
  nl
    [
      Printf.sprintf "double a[%d][%d];" n m;
      Printf.sprintf "double b[%d][%d];" m n;
      "int main()";
      "{";
      "  int i, j;";
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    for (j = 0; j < %d; j = j + 1)" m;
      Printf.sprintf "      a[i][j] = (double)(i + 2 * j) * %s;" (lit ca);
      Printf.sprintf "  for (i = 0; i < %d; i = i + 1)" n;
      Printf.sprintf "    for (j = 0; j < %d; j = j + 1)" m;
      "      b[j][i] = a[i][j];";
      Printf.sprintf "  printf(\"b[%d][%d]=%%g\\n\", b[%d][%d]);" (m / 2) (n / 2)
        (m / 2) (n / 2);
      "  return 0;";
      "}";
    ]

(* examples/symbolic.c parameterized by [n], the length of the smaller
   array: every bound and offset reaches the kernels as an argument, so
   only the symbolic range analysis can vectorize them. *)
let symbolic r n =
  let cb = small r *. 0.125 and ci = small r in
  nl
    [
      "void shift(float *a, int n, int k)";
      "{";
      "  int i;";
      "  for (i = 0; i < n; i++)";
      "    a[i] = a[i + k];";
      "}";
      "void smooth(float *a, int n, int k)";
      "{";
      "  int i;";
      "  for (i = 0; i < n; i++)";
      "    a[i] = 0.5f * (a[i + k] + a[i + k + 1]);";
      "}";
      "void scale2(float *d, int m)";
      "{";
      "  int i;";
      "  for (i = 0; i < 32 * m; i++)";
      "    d[i] = d[i] * 2.0f;";
      "}";
      Printf.sprintf "float buf[%d];" n;
      Printf.sprintf "float img[%d];" (2 * n);
      "int main()";
      "{";
      "  int i, r;";
      "  float sb, si;";
      Printf.sprintf "  for (i = 0; i < %d; i++)" n;
      Printf.sprintf "    buf[i] = 0.5f + (float)i * %s;" (litf cb);
      Printf.sprintf "  for (i = 0; i < %d; i++)" (2 * n);
      Printf.sprintf "    img[i] = (float)(%d - i) * %s;" (2 * n) (litf ci);
      "  for (r = 0; r < 4; r++) {";
      Printf.sprintf "    shift(buf, %d, %d);" (n / 4) (5 * n / 8);
      Printf.sprintf "    shift(buf, %d, %d);" (n / 8) (3 * n / 4);
      Printf.sprintf "    smooth(img, %d, %d);" ((n / 2) - 12) n;
      Printf.sprintf "    smooth(img, %d, %d);" (2 * n / 5) n;
      Printf.sprintf "    scale2(buf, %d);" (n / 128);
      Printf.sprintf "    scale2(buf, %d);" (n / 256);
      "  }";
      "  sb = 0.0f;";
      Printf.sprintf "  for (i = 0; i < %d; i++)" n;
      "    sb = sb + buf[i];";
      "  si = 0.0f;";
      Printf.sprintf "  for (i = 0; i < %d; i++)" (2 * n);
      "    si = si + img[i];";
      "  printf(\"buf sum %g  img sum %g\\n\", sb, si);";
      "  printf(\"buf[0]=%g buf[100]=%g img[0]=%g\\n\", buf[0], buf[100], img[0]);";
      "  return 0;";
      "}";
    ]

(* two carried distances (63 and 64) *)
let wavefront r n =
  let u0 = small r *. 0.5 and du = small r *. 0.03125 in
  nl
    [
      Printf.sprintf "double u[%d];" (n + 208);
      "int main() {";
      "  int k;";
      "  double s, q, r, w;";
      "  for (k = 0; k < 64; k = k + 1)";
      Printf.sprintf "    u[k] = %s + (double)k * %s;" (lit u0) (lit du);
      Printf.sprintf "  for (k = 0; k < %d; k++) {" n;
      "    s = u[k] * 0.3 + u[k + 1] * 0.3;";
      "    q = u[k] * u[k + 1];";
      "    r = q * (1.0 - q * 0.5) * 0.02 + s;";
      "    w = q * (0.5 + q * 0.25) * 0.015625;";
      "    u[k + 64] = u[k + 64] * 0.35 + r + w + 0.05;";
      "  }";
      Printf.sprintf "  printf(\"u[%d]=%%.15g u[%d]=%%.15g\\n\", u[%d], u[%d]);"
        (n / 2) (n + 63) (n / 2) (n + 63);
      "  return 0;";
      "}";
    ]

(* ---- kernels: every runnable family at two sizes ----

   device_poll is left out: it busy-waits on a device register. *)

let kernel_families : (string * (rng -> string) * (rng -> string)) list =
  [
    ("backsolve", (fun r -> backsolve r 2000), fun r -> backsolve r 500);
    ("daxpy_inline", (fun r -> daxpy_inline r 100), fun r -> daxpy_inline r 1000);
    ("graphics", (fun r -> graphics r 512), fun r -> graphics r 128);
    ("math_library", (fun r -> math_library r 256), fun r -> math_library r 1024);
    ( "matmul_ijk",
      (fun r -> matmul `Ijk r (48, 96, 96)),
      fun r -> matmul `Ijk r (16, 40, 40) );
    ( "matmul_ikj",
      (fun r -> matmul `Ikj r (24, 64, 64)),
      fun r -> matmul `Ikj r (12, 40, 40) );
    ("ptrkernels", (fun r -> ptrkernels r 1024), fun r -> ptrkernels r 256);
    ("vector_add", (fun r -> vector_add r 1000), fun r -> vector_add r 4000);
    ("recurrence", (fun r -> recurrence r 4096), fun r -> recurrence r 1024);
    ("saxpy_chain", (fun r -> saxpy_chain r 2048), fun r -> saxpy_chain r 512);
    ("stencil5", (fun r -> stencil5 r (34, 64)), fun r -> stencil5 r (18, 40));
    ("symbolic", (fun r -> symbolic r 1024), fun r -> symbolic r 512);
    ("wavefront", (fun r -> wavefront r 8192), fun r -> wavefront r 2048);
  ]

let kernels ~seed =
  List.concat_map
    (fun (family, big, small_) ->
      let r = rng seed ("kernels", family) in
      [
        { name = family ^ "_a"; src = big r };
        { name = family ^ "_b"; src = small_ r };
      ])
    kernel_families

(* ---- tune: small kernels, each a few dozen short evaluations ----

   One program per family: five request kinds, so each latency
   percentile is the median of one kind's ~20 samples (see
   [Bench.stress_units]). *)

let tune ~seed =
  List.map
    (fun (family, gen) -> { name = family; src = gen (rng seed ("tune", family)) })
    [
      ("saxpy_chain", fun r -> saxpy_chain r 128);
      ("stencil5", fun r -> stencil5 r (8, 34));
      ("transpose", fun r -> transpose r (12, 40));
      ("backsolve", fun r -> backsolve r 128);
      ("symbolic", fun r -> symbolic r 256);
    ]

(* ---- stress: many-procedure translation units ----

   Unit [t] of [units] has round(8 * 12^((t + 0.5) / units)) procedures:
   a stratified log-uniform draw over 8..96, the same on every seed.  A
   unit holds small inlinable leaves; kernels with pointer parameters,
   symbolic bounds and symbolic offsets (plain, calling a leaf, a 2-deep
   nest, a recurrence at a parameter distance, a reduction, and a
   pointer walk); call chains up to depth 8 that swap their pointer
   arguments at every link; and a [main] binding the chains' pointers to
   disjoint globals and to overlapping slices of one global.  Trips are
   short, so compiling dominates simulating. *)

let stress_procs ~units t =
  let x = (float_of_int t +. 0.5) /. float_of_int units in
  int_of_float (Float.round (8.0 *. (12.0 ** x)))

type kernel_kind = Plain | Leafcall | Nest | Recur | Reduce | Walk

let stress_unit ~seed ~units t =
  let nprocs = stress_procs ~units t in
  (* structure: fixed per unit index; values: drawn from the seed *)
  let sr = rng t "stress-shape" and vr = rng seed ("stress-values", t) in
  let narrays = 4 + int sr 4 in
  let nleaves = max 1 (nprocs / 6) in
  let nchains = max 1 (nprocs / 10) in
  let depths = Array.init nchains (fun _ -> 2 + int sr 7) in
  (* trim chains until leaves + chains + main leave room for a kernel
     per chain *)
  let chain_total () = Array.fold_left ( + ) 0 depths in
  while nleaves + chain_total () + 1 + nchains > nprocs do
    let i = ref 0 in
    Array.iteri (fun j d -> if d > depths.(!i) then i := j) depths;
    depths.(!i) <- depths.(!i) - 1
  done;
  let nkernels = nprocs - nleaves - chain_total () - 1 in
  let kinds = [| Plain; Leafcall; Nest; Recur; Reduce; Walk |] in
  let kernel_kind = Array.init nkernels (fun _ -> kinds.(int sr 6)) in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for a = 0 to narrays - 1 do
    line "float g%d[256];" a
  done;
  line "float gsum;";
  for l = 0 to nleaves - 1 do
    line "float leaf%d(float x) { return x * %s + %s; }" l (litf (small vr))
      (litf (small vr))
  done;
  Array.iteri
    (fun k kind ->
      let c = litf (small vr) in
      match kind with
      | Plain ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ int i; for (i = 0; i < n; i++) d[i] = d[i] * %s + s[i + off]; }" c
      | Leafcall ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ int i; for (i = 0; i < n; i++) d[i] = leaf%d(s[i + off]) * %s; }"
            (int sr nleaves) c
      | Nest ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ int i, j;";
          line "  for (j = 0; j < 3; j++)";
          line "    for (i = 0; i < n; i++) d[i] = d[i] * %s + s[i + off]; }" c
      | Recur ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ int i; for (i = off + 1; i < n; i++) d[i] = d[i - off - 1] * %s + s[i]; }" c
      | Reduce ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ int i; float acc; acc = 0.0f;";
          line "  for (i = 0; i < n; i++) acc = acc + s[i + off] * %s;" c;
          line "  gsum = gsum + acc; d[0] = acc; }"
      | Walk ->
          line "void kern%d(float *d, float *s, int n, int off)" k;
          line "{ s = s + off; for (; n; n--) *d++ = *s++ * %s; }" c)
    kernel_kind;
  (* chains: chain<c>_<l> calls a kernel and the next link with its
     pointer arguments swapped and a shorter trip *)
  let next_kernel = ref 0 in
  let pick_kernel () =
    let k = !next_kernel mod nkernels in
    incr next_kernel;
    k
  in
  Array.iteri
    (fun c depth ->
      for l = depth - 1 downto 0 do
        line "void chain%d_%d(float *p, float *q, int n)" c l;
        line "{";
        line "  kern%d(p, q, n, %d);" (pick_kernel ()) (int sr 9);
        if l + 1 < depth then line "  chain%d_%d(q, p, n - 2);" c (l + 1);
        line "}"
      done)
    depths;
  line "int main()";
  line "{";
  line "  int i;";
  line "  float s;";
  line "  for (i = 0; i < 256; i++) {";
  for a = 0 to narrays - 1 do
    line "    g%d[i] = i * %s + %s;" a (litf (small vr *. 0.0625)) (litf (small vr))
  done;
  line "  }";
  Array.iteri
    (fun c _ ->
      let a = int sr narrays in
      if int sr 2 = 0 then
        (* disjoint: two different globals *)
        line "  chain%d_0(g%d, g%d, %d);" c a ((a + 1 + int sr (narrays - 1)) mod narrays)
          (20 + int sr 21)
      else
        (* overlapping: two slices of one global *)
        line "  chain%d_0(g%d + %d, g%d + %d, %d);" c a (int sr 17) a (int sr 17)
          (20 + int sr 21))
    depths;
  (* every kernel is reachable: call the ones no chain reached directly *)
  for k = !next_kernel to nkernels - 1 do
    let a = int sr narrays in
    line "  kern%d(g%d + %d, g%d, %d, %d);" k a (int sr 9) ((a + 1) mod narrays)
      (8 + int sr 25) (int sr 9)
  done;
  line "  s = gsum;";
  for a = 0 to narrays - 1 do
    line "  for (i = 0; i < 256; i++) s = s + g%d[i];" a
  done;
  line "  printf(\"%%g\\n\", s);";
  line "  return 0;";
  line "}";
  { name = Printf.sprintf "stress%02d_p%d" t nprocs; src = Buffer.contents buf }

let stress ~seed ~units = List.init units (stress_unit ~seed ~units)

(* ---- serve: a monorepo and its edit-replay session ----

   Every unit has the same six procedures (a leaf-mid-top call chain and
   a 2-deep sweep sharing globals, an independent kernel, and [main]), so
   a miss costs about the same whichever unit it hits.  An edit rewrites
   one function's constant from the unit's edit counter, so every edit
   yields source the cache has never seen. *)

type unit_state = {
  u_name : string;
  u_consts : float array;  (* per-unit constants, drawn once *)
  mutable u_leaf_edits : int;
  mutable u_kern_edits : int;
  mutable u_sweep_edits : int;
}

let monorepo_unit ~seed i =
  let r = rng seed ("monorepo", i) in
  {
    u_name = Printf.sprintf "unit%03d" i;
    u_consts = Array.init 6 (fun _ -> small r);
    u_leaf_edits = 0;
    u_kern_edits = 0;
    u_sweep_edits = 0;
  }

let edit_payload base edits = litf (base +. (float_of_int edits /. 64.0))

let monorepo_src u =
  let c = u.u_consts in
  nl
    [
      Printf.sprintf "/* %s */" u.u_name;
      "static float acc[64];";
      "static float src[64];";
      "static float kacc[128];";
      "static float ksrc[128];";
      Printf.sprintf "float leaf(float x) { return x * %s + %s; }" (litf c.(0))
        (edit_payload c.(1) u.u_leaf_edits);
      "float mid(float x) { return leaf(x) + leaf(x + 1.0f); }";
      "float top(int n)";
      "{";
      "  int i;";
      "  float s;";
      "  s = 0.0f;";
      "  for (i = 0; i < n; i++) {";
      "    acc[i] = mid(src[i]);";
      "    s = s + acc[i];";
      "  }";
      "  return s;";
      "}";
      "float sweep(int n)";
      "{";
      "  int i, j;";
      "  float s;";
      "  s = 0.0f;";
      "  for (j = 0; j < 4; j++)";
      "    for (i = 0; i < n; i++)";
      Printf.sprintf "      acc[i] = acc[i] * %s + src[i] * leaf((float)j);"
        (edit_payload c.(2) u.u_sweep_edits);
      "  for (i = 0; i < n; i++)";
      "    s = s + acc[i];";
      "  return s;";
      "}";
      "int kernel(int n)";
      "{";
      "  int i, j;";
      Printf.sprintf "  for (i = 0; i < n; i++) kacc[i] = ksrc[i] * %s;"
        (edit_payload c.(3) u.u_kern_edits);
      "  for (j = 0; j < 4; j++)";
      "    for (i = 0; i < n; i++)";
      "      kacc[i] = kacc[i] + ksrc[i] * (float)j;";
      "  return n;";
      "}";
      "int main()";
      "{";
      "  int i;";
      "  float s;";
      "  for (i = 0; i < 64; i++) src[i] = i * " ^ litf (c.(4) *. 0.0625) ^ ";";
      "  for (i = 0; i < 128; i++) ksrc[i] = i * " ^ litf (c.(5) *. 0.0625) ^ ";";
      "  s = top(48) + sweep(40);";
      "  kernel(96);";
      "  printf(\"%g %g %g\\n\", s, acc[7], kacc[95]);";
      "  return 0;";
      "}";
    ]

let monorepo_program u = { name = u.u_name; src = monorepo_src u }

(* Apply one seeded one-function edit. *)
let edit r u =
  match int r 3 with
  | 0 -> u.u_leaf_edits <- u.u_leaf_edits + 1
  | 1 -> u.u_kern_edits <- u.u_kern_edits + 1
  | _ -> u.u_sweep_edits <- u.u_sweep_edits + 1

(* Zipf(1) popularity over [n] units, hottest first after a seeded
   permutation of which unit holds which rank. *)
type zipf = { cdf : float array; rank_to_unit : int array }

let zipf ~seed n =
  let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let perm = Array.init n Fun.id in
  shuffle (rng seed "zipf-ranks") perm;
  { cdf; rank_to_unit = perm }

let zipf_draw z r =
  let x = uniform r in
  let n = Array.length z.cdf in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) < x then find (mid + 1) hi else find lo mid
  in
  z.rank_to_unit.(min (n - 1) (find 0 (n - 1)))
