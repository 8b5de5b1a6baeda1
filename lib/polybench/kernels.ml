type kernel = {
  name : string;
  description : string;
  source : string;
  unrolled : string option;
  inputs : (string * int list) list;
}

let n = 8

(* Deterministic input data: small positive values. *)
let data name count =
  List.init count (fun i -> (((i * 13) + (Char.code name.[0] * 7)) mod 19) + 1)

let mat name = (name, data name (n * n))
let vec name = (name, data name n)

(* An 8-leaf balanced addition tree over a banked scratch vector. *)
let tree8 m =
  Printf.sprintf
    "(((%s[0] + %s[1]) + (%s[2] + %s[3])) + ((%s[4] + %s[5]) + (%s[6] + %s[7])))"
    m m m m m m m m

(* ------------------------------------------------------------------ *)
(* 1. gemm: C = beta*C + alpha*A*B (alpha = 3, beta = 2)               *)
(* ------------------------------------------------------------------ *)

let gemm =
  {
    name = "gemm";
    description = "C = beta*C + alpha*A*B";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl C: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    C[i][j] := C[i][j] * 2
    ---
    for (let k: ubit<4> = 0..8) {
      let t: ubit<32> = 3 * A[i][k]
      ---
      let u: ubit<32> = t * B[k][j]
      ---
      C[i][j] := C[i][j] + u
    }
  }
}
|};
    unrolled =
      Some
        {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8 bank 8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    C[i][j] := C[i][j] * 2
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t: ubit<32> = 3 * A[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let u: ubit<32> = t * B[k][j]
      ---
      C[i][j] := C[i][j] + u
    }
  }
}
|};
    inputs = [ mat "A"; mat "B"; mat "C" ];
  }

(* ------------------------------------------------------------------ *)
(* 2. gemver: A += u1 v1^T + u2 v2^T; x += beta*A^T*y; x += z;
      w += alpha*A*x                                                   *)
(* ------------------------------------------------------------------ *)

let gemver =
  {
    name = "gemver";
    description = "vector multiplication and matrix addition";
    source =
      {|
decl A: ubit<32>[8][8];
decl u1: ubit<32>[8];
decl v1: ubit<32>[8];
decl u2: ubit<32>[8];
decl v2: ubit<32>[8];
decl x: ubit<32>[8];
decl y: ubit<32>[8];
decl w: ubit<32>[8];
decl z: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let p1: ubit<32> = u1[i] * v1[j]
    ---
    let p2: ubit<32> = u2[i] * v2[j]
    ---
    A[i][j] := A[i][j] + p1 + p2
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let t: ubit<32> = 2 * A[j][i]
    ---
    let s: ubit<32> = t * y[j]
    ---
    x[i] := x[i] + s
  }
}
---
for (let i: ubit<4> = 0..8) {
  x[i] := x[i] + z[i]
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let t2: ubit<32> = 3 * A[i][j]
    ---
    let s2: ubit<32> = t2 * x[j]
    ---
    w[i] := w[i] + s2
  }
}
|};
    unrolled = None;
    inputs =
      [ mat "A"; vec "u1"; vec "v1"; vec "u2"; vec "v2"; vec "x"; vec "y";
        vec "w"; vec "z" ];
  }

(* ------------------------------------------------------------------ *)
(* 3. gesummv: y = alpha*A*x + beta*B*x                                *)
(* ------------------------------------------------------------------ *)

let gesummv =
  {
    name = "gesummv";
    description = "summed matrix-vector multiplications";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl x: ubit<32>[8];
decl y: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  let s1: ubit<32> = 0;
  let s2: ubit<32> = 0
  ---
  for (let j: ubit<4> = 0..8) {
    let p: ubit<32> = A[i][j] * x[j]
    ---
    s1 := s1 + p
  }
  ---
  for (let j: ubit<4> = 0..8) {
    let q: ubit<32> = B[i][j] * x[j]
    ---
    s2 := s2 + q
  }
  ---
  let t1: ubit<32> = 3 * s1
  ---
  let t2: ubit<32> = 2 * s2
  ---
  y[i] := t1 + t2
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8][8 bank 8];
decl B: ubit<32>[8][8 bank 8];
decl x: ubit<32>[8 bank 8];
decl y: ubit<32>[8];
decl pa: ubit<32>[8 bank 8];
decl pb: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    pa[j] := A[i][j] * x[j]
  }
  ---
  for (let j: ubit<4> = 0..8) unroll 8 {
    pb[j] := B[i][j] * x[j]
  }
  ---
  let s1: ubit<32> = %s
  ---
  let s2: ubit<32> = %s
  ---
  let t1: ubit<32> = 3 * s1
  ---
  let t2: ubit<32> = 2 * s2
  ---
  y[i] := t1 + t2
}
|}
           (tree8 "pa") (tree8 "pb"));
    inputs = [ mat "A"; mat "B"; vec "x"; vec "y" ];
  }

(* ------------------------------------------------------------------ *)
(* 4. symm: symmetric matrix multiply                                  *)
(* ------------------------------------------------------------------ *)

let symm =
  {
    name = "symm";
    description = "symmetric matrix-matrix multiplication";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl C: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let tmp: ubit<32> = 0;
    let k: ubit<4> = 0
    ---
    while (k < i) {
      let t1: ubit<32> = 3 * B[i][j]
      ---
      let t2: ubit<32> = t1 * A[i][k]
      ---
      C[k][j] := C[k][j] + t2
      ---
      let t3: ubit<32> = B[k][j] * A[i][k]
      ---
      tmp := tmp + t3
      ---
      k := k + 1
    }
    ---
    let t4: ubit<32> = 2 * C[i][j]
    ---
    let t5: ubit<32> = 3 * B[i][j]
    ---
    let t6: ubit<32> = t5 * A[i][i]
    ---
    let t7: ubit<32> = 3 * tmp
    ---
    C[i][j] := t4 + t6 + t7
  }
}
|};
    unrolled =
      Some
        {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8 bank 8];
decl tmpv: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    tmpv[j] := 0
  }
  ---
  let k: ubit<4> = 0
  ---
  while (k < i) {
    let aik: ubit<32> = A[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let t1: ubit<32> = 3 * B[i][j]
      ---
      let t2: ubit<32> = t1 * aik
      ---
      C[k][j] := C[k][j] + t2
      ---
      let t3: ubit<32> = B[k][j] * aik
      ---
      tmpv[j] := tmpv[j] + t3
    }
    ---
    k := k + 1
  }
  ---
  let aii: ubit<32> = A[i][i]
  ---
  for (let j: ubit<4> = 0..8) unroll 8 {
    let t4: ubit<32> = 2 * C[i][j]
    ---
    let t5: ubit<32> = 3 * B[i][j]
    ---
    let t6: ubit<32> = t5 * aii
    ---
    let t7: ubit<32> = 3 * tmpv[j]
    ---
    C[i][j] := t4 + t6 + t7
  }
}
|};
    inputs = [ mat "A"; mat "B"; mat "C" ];
  }

(* ------------------------------------------------------------------ *)
(* 5. syrk: C (lower triangle) = beta*C + alpha*A*A^T                  *)
(* ------------------------------------------------------------------ *)

let syrk =
  {
    name = "syrk";
    description = "symmetric rank-k update";
    source =
      {|
decl A: ubit<32>[8][8];
decl C: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j <= i) {
    C[i][j] := C[i][j] * 2
    ---
    for (let k: ubit<4> = 0..8) {
      let t1: ubit<32> = 3 * A[i][k]
      ---
      let t2: ubit<32> = t1 * A[j][k]
      ---
      C[i][j] := C[i][j] + t2
    }
    ---
    j := j + 1
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8];
decl ps: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j <= i) {
    for (let k: ubit<4> = 0..8) unroll 8 {
      let u: ubit<32> = A[i][k] * A[j][k]
      ---
      ps[k] := 3 * u
    }
    ---
    let s: ubit<32> = %s
    ---
    let t: ubit<32> = 2 * C[i][j]
    ---
    C[i][j] := t + s
    ---
    j := j + 1
  }
}
|}
           (tree8 "ps"));
    inputs = [ mat "A"; mat "C" ];
  }

(* ------------------------------------------------------------------ *)
(* 6. syr2k: C (lower) = beta*C + alpha*(A*B^T + B*A^T)                *)
(* ------------------------------------------------------------------ *)

let syr2k =
  {
    name = "syr2k";
    description = "symmetric rank-2k update";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl C: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j <= i) {
    C[i][j] := C[i][j] * 2
    ---
    for (let k: ubit<4> = 0..8) {
      let t1: ubit<32> = A[i][k] * B[j][k]
      ---
      let t2: ubit<32> = B[i][k] * A[j][k]
      ---
      let t3: ubit<32> = 3 * (t1 + t2)
      ---
      C[i][j] := C[i][j] + t3
    }
    ---
    j := j + 1
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8][8 bank 8];
decl B: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8];
decl ps: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j <= i) {
    for (let k: ubit<4> = 0..8) unroll 8 {
      let t1: ubit<32> = A[i][k] * B[j][k]
      ---
      let t2: ubit<32> = B[i][k] * A[j][k]
      ---
      ps[k] := 3 * (t1 + t2)
    }
    ---
    let s: ubit<32> = %s
    ---
    let t: ubit<32> = 2 * C[i][j]
    ---
    C[i][j] := t + s
    ---
    j := j + 1
  }
}
|}
           (tree8 "ps"));
    inputs = [ mat "A"; mat "B"; mat "C" ];
  }

(* ------------------------------------------------------------------ *)
(* 7. trmm: B = alpha * A^T * B (A unit lower triangular)              *)
(* ------------------------------------------------------------------ *)

let trmm =
  {
    name = "trmm";
    description = "triangular matrix multiply";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let k: ubit<4> = i + 1
    ---
    while (k < 8) {
      let t: ubit<32> = A[k][i] * B[k][j]
      ---
      B[i][j] := B[i][j] + t
      ---
      k := k + 1
    }
    ---
    B[i][j] := B[i][j] * 3
  }
}
|};
    unrolled = None;
    inputs = [ mat "A"; mat "B" ];
  }

(* ------------------------------------------------------------------ *)
(* 8. 2mm: D = alpha*A*B*C + beta*D                                    *)
(* ------------------------------------------------------------------ *)

let drain8 dst src row =
  String.concat "\n  ---\n  "
    (List.init 8 (fun j -> Printf.sprintf "%s[%s][%d] := %s[%d]" dst row j src j))

let two_mm =
  {
    name = "2mm";
    description = "two matrix multiplications";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl C: ubit<32>[8][8];
decl D: ubit<32>[8][8];
decl tmp: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    tmp[i][j] := 0
    ---
    for (let k: ubit<4> = 0..8) {
      let t1: ubit<32> = 3 * A[i][k]
      ---
      let t2: ubit<32> = t1 * B[k][j]
      ---
      tmp[i][j] := tmp[i][j] + t2
    }
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    D[i][j] := D[i][j] * 2
    ---
    for (let k: ubit<4> = 0..8) {
      let t3: ubit<32> = tmp[i][k] * C[k][j]
      ---
      D[i][j] := D[i][j] + t3
    }
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8 bank 8];
decl D: ubit<32>[8][8 bank 8];
decl tmp: ubit<32>[8][8];
decl p: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    p[j] := 0
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t1: ubit<32> = 3 * A[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let t2: ubit<32> = t1 * B[k][j]
      ---
      p[j] := p[j] + t2
    }
  }
  ---
  %s
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    D[i][j] := D[i][j] * 2
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t3: ubit<32> = tmp[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let t4: ubit<32> = t3 * C[k][j]
      ---
      D[i][j] := D[i][j] + t4
    }
  }
}
|}
           (drain8 "tmp" "p" "i"));
    inputs = [ mat "A"; mat "B"; mat "C"; mat "D" ];
  }

(* ------------------------------------------------------------------ *)
(* 9. 3mm: G = (A*B) * (C*D)                                           *)
(* ------------------------------------------------------------------ *)

let three_mm =
  {
    name = "3mm";
    description = "three matrix multiplications";
    source =
      {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8];
decl C: ubit<32>[8][8];
decl D: ubit<32>[8][8];
decl E: ubit<32>[8][8];
decl F: ubit<32>[8][8];
decl G: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    E[i][j] := 0
    ---
    for (let k: ubit<4> = 0..8) {
      let t1: ubit<32> = A[i][k] * B[k][j]
      ---
      E[i][j] := E[i][j] + t1
    }
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    F[i][j] := 0
    ---
    for (let k: ubit<4> = 0..8) {
      let t2: ubit<32> = C[i][k] * D[k][j]
      ---
      F[i][j] := F[i][j] + t2
    }
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    G[i][j] := 0
    ---
    for (let k: ubit<4> = 0..8) {
      let t3: ubit<32> = E[i][k] * F[k][j]
      ---
      G[i][j] := G[i][j] + t3
    }
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8][8];
decl B: ubit<32>[8][8 bank 8];
decl C: ubit<32>[8][8];
decl D: ubit<32>[8][8 bank 8];
decl E: ubit<32>[8][8];
decl F: ubit<32>[8][8 bank 8];
decl G: ubit<32>[8][8 bank 8];
decl p: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    p[j] := 0
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t1: ubit<32> = A[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let u1: ubit<32> = t1 * B[k][j]
      ---
      p[j] := p[j] + u1
    }
  }
  ---
  %s
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    p[j] := 0
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t2: ubit<32> = C[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let u2: ubit<32> = t2 * D[k][j]
      ---
      p[j] := p[j] + u2
    }
  }
  ---
  %s
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    G[i][j] := 0
  }
  ---
  for (let k: ubit<4> = 0..8) {
    let t3: ubit<32> = E[i][k]
    ---
    for (let j: ubit<4> = 0..8) unroll 8 {
      let u3: ubit<32> = t3 * F[k][j]
      ---
      G[i][j] := G[i][j] + u3
    }
  }
}
|}
           (drain8 "E" "p" "i") (drain8 "F" "p" "i"));
    inputs = [ mat "A"; mat "B"; mat "C"; mat "D" ];
  }

(* ------------------------------------------------------------------ *)
(* 10. atax: y = A^T (A x)                                             *)
(* ------------------------------------------------------------------ *)

let atax =
  {
    name = "atax";
    description = "matrix-transpose-vector product";
    source =
      {|
decl A: ubit<32>[8][8];
decl x: ubit<32>[8];
decl y: ubit<32>[8];
decl tmp: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  tmp[i] := 0
  ---
  for (let j: ubit<4> = 0..8) {
    let t: ubit<32> = A[i][j] * x[j]
    ---
    tmp[i] := tmp[i] + t
  }
}
---
for (let i: ubit<4> = 0..8) {
  y[i] := 0
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let u: ubit<32> = A[i][j] * tmp[i]
    ---
    y[j] := y[j] + u
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8 bank 8][8];
decl x: ubit<32>[8];
decl y: ubit<32>[8];
decl tmp: ubit<32>[8 bank 8];
decl ps: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) unroll 8 {
  tmp[i] := 0
}
---
for (let j: ubit<4> = 0..8) {
  let xv: ubit<32> = x[j]
  ---
  for (let i: ubit<4> = 0..8) unroll 8 {
    let t: ubit<32> = A[i][j] * xv
    ---
    tmp[i] := tmp[i] + t
  }
}
---
for (let j: ubit<4> = 0..8) {
  for (let i: ubit<4> = 0..8) unroll 8 {
    ps[i] := A[i][j] * tmp[i]
  }
  ---
  y[j] := %s
}
|}
           (tree8 "ps"));
    inputs = [ mat "A"; vec "x"; vec "y" ];
  }

(* ------------------------------------------------------------------ *)
(* 11. bicg: s = A^T r; q = A p                                        *)
(* ------------------------------------------------------------------ *)

let bicg =
  {
    name = "bicg";
    description = "BiCG sub-kernel";
    source =
      {|
decl A: ubit<32>[8][8];
decl r: ubit<32>[8];
decl p: ubit<32>[8];
decl s: ubit<32>[8];
decl q: ubit<32>[8];
for (let j: ubit<4> = 0..8) {
  s[j] := 0
}
---
for (let i: ubit<4> = 0..8) {
  q[i] := 0
  ---
  for (let j: ubit<4> = 0..8) {
    let t: ubit<32> = r[i] * A[i][j]
    ---
    s[j] := s[j] + t
    ---
    let u: ubit<32> = A[i][j] * p[j]
    ---
    q[i] := q[i] + u
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8 bank 8][8];
decl r: ubit<32>[8 bank 8];
decl p: ubit<32>[8];
decl s: ubit<32>[8];
decl q: ubit<32>[8 bank 8];
decl ps: ubit<32>[8 bank 8];
for (let i: ubit<4> = 0..8) unroll 8 {
  q[i] := 0
}
---
for (let j: ubit<4> = 0..8) {
  for (let i: ubit<4> = 0..8) unroll 8 {
    ps[i] := r[i] * A[i][j]
  }
  ---
  s[j] := %s
  ---
  let pv: ubit<32> = p[j]
  ---
  for (let i: ubit<4> = 0..8) unroll 8 {
    let u: ubit<32> = A[i][j] * pv
    ---
    q[i] := q[i] + u
  }
}
|}
           (tree8 "ps"));
    inputs = [ mat "A"; vec "r"; vec "p" ];
  }

(* ------------------------------------------------------------------ *)
(* 12. doitgen: multi-resolution analysis kernel (4x4x4)               *)
(* ------------------------------------------------------------------ *)

let doitgen =
  {
    name = "doitgen";
    description = "multiresolution analysis kernel";
    source =
      {|
decl A2: ubit<32>[16][4];
decl C4: ubit<32>[4][4];
decl sum: ubit<32>[4];
for (let rq: ubit<5> = 0..16) {
  for (let p: ubit<3> = 0..4) {
    sum[p] := 0
    ---
    for (let s: ubit<3> = 0..4) {
      let t: ubit<32> = A2[rq][s] * C4[s][p]
      ---
      sum[p] := sum[p] + t
    }
  }
  ---
  for (let p: ubit<3> = 0..4) {
    A2[rq][p] := sum[p]
  }
}
|};
    unrolled =
      Some
        {|
decl A2: ubit<32>[16][4];
decl C4: ubit<32>[4][4 bank 4];
decl sum: ubit<32>[4 bank 4];
for (let rq: ubit<5> = 0..16) {
  for (let p: ubit<3> = 0..4) unroll 4 {
    sum[p] := 0
  }
  ---
  for (let s: ubit<3> = 0..4) {
    let av: ubit<32> = A2[rq][s]
    ---
    for (let p: ubit<3> = 0..4) unroll 4 {
      let t: ubit<32> = av * C4[s][p]
      ---
      sum[p] := sum[p] + t
    }
  }
  ---
  A2[rq][0] := sum[0]
  ---
  A2[rq][1] := sum[1]
  ---
  A2[rq][2] := sum[2]
  ---
  A2[rq][3] := sum[3]
}
|};
    inputs = [ ("A2", data "A2" (16 * 4)); ("C4", data "C4" (4 * 4)) ];
  }

(* ------------------------------------------------------------------ *)
(* 13. mvt: x1 += A y1; x2 += A^T y2                                   *)
(* ------------------------------------------------------------------ *)

let mvt =
  {
    name = "mvt";
    description = "matrix-vector product and transpose";
    source =
      {|
decl A: ubit<32>[8][8];
decl x1: ubit<32>[8];
decl x2: ubit<32>[8];
decl y1: ubit<32>[8];
decl y2: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let t: ubit<32> = A[i][j] * y1[j]
    ---
    x1[i] := x1[i] + t
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) {
    let u: ubit<32> = A[j][i] * y2[j]
    ---
    x2[i] := x2[i] + u
  }
}
|};
    unrolled =
      Some
        (Printf.sprintf
           {|
decl A: ubit<32>[8 bank 8][8];
decl x1: ubit<32>[8 bank 8];
decl x2: ubit<32>[8];
decl y1: ubit<32>[8];
decl y2: ubit<32>[8 bank 8];
decl ps: ubit<32>[8 bank 8];
for (let j: ubit<4> = 0..8) {
  let yv: ubit<32> = y1[j]
  ---
  for (let i: ubit<4> = 0..8) unroll 8 {
    let t: ubit<32> = A[i][j] * yv
    ---
    x1[i] := x1[i] + t
  }
}
---
for (let i: ubit<4> = 0..8) {
  for (let j: ubit<4> = 0..8) unroll 8 {
    ps[j] := A[j][i] * y2[j]
  }
  ---
  x2[i] := x2[i] + %s
}
|}
           (tree8 "ps"));
    inputs = [ mat "A"; vec "x1"; vec "x2"; vec "y1"; vec "y2" ];
  }

(* ------------------------------------------------------------------ *)
(* 14. cholesky (integer variant; division and sqrt as in hardware)    *)
(* ------------------------------------------------------------------ *)

let cholesky =
  {
    name = "cholesky";
    description = "Cholesky decomposition";
    source =
      {|
decl A: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j < i) {
    let k: ubit<4> = 0
    ---
    while (k < j) {
      let t: ubit<32> = A[i][k] * A[j][k]
      ---
      A[i][j] := A[i][j] - t
      ---
      k := k + 1
    }
    ---
    A[i][j] := A[i][j] / A[j][j]
    ---
    j := j + 1
  }
  ---
  let k2: ubit<4> = 0
  ---
  while (k2 < i) {
    let t2: ubit<32> = A[i][k2] * A[i][k2]
    ---
    A[i][i] := A[i][i] - t2
    ---
    k2 := k2 + 1
  }
  ---
  A[i][i] := sqrt(A[i][i])
}
|};
    unrolled = None;
    inputs = [ mat "A" ];
  }

(* ------------------------------------------------------------------ *)
(* 15. durbin: Toeplitz system solver                                  *)
(* ------------------------------------------------------------------ *)

let durbin =
  {
    name = "durbin";
    description = "Toeplitz system solver (Levinson-Durbin)";
    source =
      {|
decl r: ubit<32>[8];
decl y: ubit<32>[8];
decl z: ubit<32>[8];
let alpha: ubit<32> = 0 - r[0];
let beta: ubit<32> = 1
---
y[0] := 0 - r[0]
---
for (let k: ubit<4> = 1..8) {
  let aa: ubit<32> = alpha * alpha
  ---
  let om: ubit<32> = 1 - aa
  ---
  beta := om * beta
  ---
  let sum: ubit<32> = 0;
  let i: ubit<4> = 0
  ---
  while (i < k) {
    let idx: ubit<4> = k - i - 1
    ---
    let t: ubit<32> = r[idx] * y[i]
    ---
    sum := sum + t
    ---
    i := i + 1
  }
  ---
  let num: ubit<32> = r[k] + sum
  ---
  alpha := (0 - num) / beta
  ---
  let i2: ubit<4> = 0
  ---
  while (i2 < k) {
    let idx2: ubit<4> = k - i2 - 1
    ---
    let t2: ubit<32> = alpha * y[idx2]
    ---
    z[i2] := y[i2] + t2
    ---
    i2 := i2 + 1
  }
  ---
  let i3: ubit<4> = 0
  ---
  while (i3 < k) {
    y[i3] := z[i3]
    ---
    i3 := i3 + 1
  }
  ---
  y[k] := alpha
}
|};
    unrolled = None;
    inputs = [ vec "r" ];
  }

(* ------------------------------------------------------------------ *)
(* 16. gramschmidt: QR decomposition                                   *)
(* ------------------------------------------------------------------ *)

let gramschmidt =
  {
    name = "gramschmidt";
    description = "Gram-Schmidt QR decomposition";
    source =
      {|
decl A: ubit<32>[8][8];
decl Q: ubit<32>[8][8];
decl R: ubit<32>[8][8];
for (let k: ubit<4> = 0..8) {
  let nrm: ubit<32> = 0
  ---
  for (let i: ubit<4> = 0..8) {
    let t: ubit<32> = A[i][k] * A[i][k]
    ---
    nrm := nrm + t
  }
  ---
  R[k][k] := sqrt(nrm)
  ---
  for (let i: ubit<4> = 0..8) {
    Q[i][k] := A[i][k] / R[k][k]
  }
  ---
  let j: ubit<4> = k + 1
  ---
  while (j < 8) {
    R[k][j] := 0
    ---
    for (let i: ubit<4> = 0..8) {
      let t2: ubit<32> = Q[i][k] * A[i][j]
      ---
      R[k][j] := R[k][j] + t2
    }
    ---
    for (let i: ubit<4> = 0..8) {
      let t3: ubit<32> = Q[i][k] * R[k][j]
      ---
      A[i][j] := A[i][j] - t3
    }
    ---
    j := j + 1
  }
}
|};
    unrolled = None;
    inputs = [ mat "A" ];
  }

(* ------------------------------------------------------------------ *)
(* 17. lu: LU decomposition (in place)                                 *)
(* ------------------------------------------------------------------ *)

let lu =
  {
    name = "lu";
    description = "LU decomposition";
    source =
      {|
decl A: ubit<32>[8][8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j < i) {
    let k: ubit<4> = 0
    ---
    while (k < j) {
      let t: ubit<32> = A[i][k] * A[k][j]
      ---
      A[i][j] := A[i][j] - t
      ---
      k := k + 1
    }
    ---
    A[i][j] := A[i][j] / A[j][j]
    ---
    j := j + 1
  }
  ---
  let j2: ubit<4> = i
  ---
  while (j2 < 8) {
    let k2: ubit<4> = 0
    ---
    while (k2 < i) {
      let t2: ubit<32> = A[i][k2] * A[k2][j2]
      ---
      A[i][j2] := A[i][j2] - t2
      ---
      k2 := k2 + 1
    }
    ---
    j2 := j2 + 1
  }
}
|};
    unrolled = None;
    inputs = [ mat "A" ];
  }

(* ------------------------------------------------------------------ *)
(* 18. ludcmp: LU + triangular solves                                  *)
(* ------------------------------------------------------------------ *)

let ludcmp =
  {
    name = "ludcmp";
    description = "LU decomposition followed by forward/back substitution";
    source =
      {|
decl A: ubit<32>[8][8];
decl b: ubit<32>[8];
decl x: ubit<32>[8];
decl y: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  let j: ubit<4> = 0
  ---
  while (j < i) {
    let k: ubit<4> = 0
    ---
    while (k < j) {
      let t: ubit<32> = A[i][k] * A[k][j]
      ---
      A[i][j] := A[i][j] - t
      ---
      k := k + 1
    }
    ---
    A[i][j] := A[i][j] / A[j][j]
    ---
    j := j + 1
  }
  ---
  let j2: ubit<4> = i
  ---
  while (j2 < 8) {
    let k2: ubit<4> = 0
    ---
    while (k2 < i) {
      let t2: ubit<32> = A[i][k2] * A[k2][j2]
      ---
      A[i][j2] := A[i][j2] - t2
      ---
      k2 := k2 + 1
    }
    ---
    j2 := j2 + 1
  }
}
---
for (let i: ubit<4> = 0..8) {
  let acc: ubit<32> = b[i]
  ---
  let j3: ubit<4> = 0
  ---
  while (j3 < i) {
    let t3: ubit<32> = A[i][j3] * y[j3]
    ---
    acc := acc - t3
    ---
    j3 := j3 + 1
  }
  ---
  y[i] := acc
}
---
let ii: ubit<4> = 8
---
while (ii > 0) {
  let i2: ubit<4> = ii - 1
  ---
  let acc2: ubit<32> = y[i2]
  ---
  let j4: ubit<4> = i2 + 1
  ---
  while (j4 < 8) {
    let t4: ubit<32> = A[i2][j4] * x[j4]
    ---
    acc2 := acc2 - t4
    ---
    j4 := j4 + 1
  }
  ---
  x[i2] := acc2 / A[i2][i2]
  ---
  ii := ii - 1
}
|};
    unrolled = None;
    inputs = [ mat "A"; vec "b" ];
  }

(* ------------------------------------------------------------------ *)
(* 19. trisolv: triangular solver                                      *)
(* ------------------------------------------------------------------ *)

let trisolv =
  {
    name = "trisolv";
    description = "triangular solver";
    source =
      {|
decl L: ubit<32>[8][8];
decl b: ubit<32>[8];
decl x: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  x[i] := b[i]
  ---
  let j: ubit<4> = 0
  ---
  while (j < i) {
    let t: ubit<32> = L[i][j] * x[j]
    ---
    x[i] := x[i] - t
    ---
    j := j + 1
  }
  ---
  x[i] := x[i] / L[i][i]
}
|};
    unrolled = None;
    inputs = [ mat "L"; vec "b" ];
  }

let all =
  [
    gemm; gemver; gesummv; symm; syr2k; syrk; trmm;
    two_mm; three_mm; atax; bicg; doitgen; mvt;
    cholesky; durbin; gramschmidt; lu; ludcmp; trisolv;
  ]

let find name = List.find (fun k -> String.equal k.name name) all
let unrollable = List.filter (fun k -> k.unrolled <> None) all
