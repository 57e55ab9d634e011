(** Dense vectors and matrices over [float array]: the parameter storage
    of every layer (row-major) and the distribution helpers the policy
    heads need.  The forward and backward arithmetic runs on {!Batch}'s
    row kernels. *)

type vec = float array

type mat = { rows : int; cols : int; data : float array }

let vec_create n = Array.make n 0.0

let mat_create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

(** Xavier/Glorot uniform initialization. *)
let mat_xavier (rng : Rng.t) rows cols =
  let limit = sqrt (6.0 /. float_of_int (rows + cols)) in
  { rows; cols;
    data = Array.init (rows * cols) (fun _ -> Rng.range rng ~lo:(-.limit) ~hi:limit) }

let fill_zero (v : vec) = Array.fill v 0 (Array.length v) 0.0

let mat_fill_zero m = Array.fill m.data 0 (Array.length m.data) 0.0

(** Numerically-stable softmax. *)
let softmax (v : vec) : vec =
  let m = Array.fold_left max neg_infinity v in
  let e = Array.map (fun x -> exp (x -. m)) v in
  let s = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. s) e

let log_softmax (v : vec) : vec =
  let m = Array.fold_left max neg_infinity v in
  let s = Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 v in
  let logz = m +. log s in
  Array.map (fun x -> x -. logz) v

exception Bad_probability of string
(** A probability vector handed to {!sample_u} was not one: NaN/infinite
    entries, negative mass, or total mass well short of the sampled
    uniform.  A diverged policy surfaces as this error instead of
    silently biasing every deficient draw onto the last action. *)

(** Sample an index from a probability vector with the uniform draw [u]
    supplied by the caller (so batched rollouts can pre-draw the RNG
    stream in the serial order and apply it later): the first index
    whose running sum exceeds [u]. *)
let sample_u ~(u : float) (probs : vec) : int =
  let n = Array.length probs in
  if n = 0 then raise (Bad_probability "sample: empty probability vector");
  let acc = ref 0.0 and idx = ref (-1) in
  for i = 0 to n - 1 do
    let p = probs.(i) in
    if not (Float.is_finite p) || p < 0.0 then
      raise
        (Bad_probability
           (Printf.sprintf "sample: probs.(%d) = %h is not a probability" i p));
    acc := !acc +. p;
    if !idx < 0 && u < !acc then idx := i
  done;
  if !idx >= 0 then !idx
  else if !acc < 1.0 -. 1e-6 then
    (* rounding can leave the total a few ulps under 1.0 with u just
       above it — that is fine and falls through to the last index, as
       the scan always did; a *deficient* distribution is an error *)
    raise
      (Bad_probability
         (Printf.sprintf "sample: total mass %h < 1 (u = %h)" !acc u))
  else n - 1
