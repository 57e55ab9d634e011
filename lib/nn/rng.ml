(** Deterministic splitmix64 RNG.

    Every stochastic component (weight init, sampling, dataset generation,
    exploration) draws from an explicit [Rng.t] so that experiments are
    reproducible run-to-run — figures in EXPERIMENTS.md regenerate
    bit-identically. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int (seed * 2654435761 + 1) }

let next_int64 (t : t) : int64 =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** Uniform float in [0, 1). *)
let float (t : t) : float =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

(** Uniform int in [0, n). *)
let int (t : t) (n : int) : int =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1)
                  (Int64.of_int n))

(** Uniform float in [lo, hi). *)
let range (t : t) ~lo ~hi : float = lo +. ((hi -. lo) *. float t)

(** Standard normal via Box-Muller. *)
let normal (t : t) : float =
  let u1 = max (float t) 1e-12 and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(** Pick one element of a non-empty array. *)
let choose (t : t) (a : 'a array) : 'a = a.(int t (Array.length a))

(** Shuffle an array in place (Fisher-Yates). *)
let shuffle (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
