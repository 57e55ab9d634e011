(** Symbolic translation validation of loops.

    {!Tv} decides a verdict by running the scalar reference (S) and the
    transformed module (T) on four inputs.  This module instead evaluates
    S and T side by side into hash-consed terms over symbolic memory and
    either proves the two final states equal for every input or answers
    "unknown", which sends the verdict to the ladder unchanged.

    {b Fragment.}  Counted loops whose init and bound evaluate to
    constants, [Block]s of unmasked scalar and vector definitions and
    stores, and a top-level [Return].  Before any term is built, one
    syntactic pass over both kernels ({!block_loops}) declines [If],
    [WhileLoop], [BreakN], [ContinueN], calls and masks anywhere, and a
    kernel without a nest whose top-level loop has bounds that do not
    fold to constants or is too short for a block step to pay.  Loops
    whose bounds depend on an outer loop variable answer "unknown".
    Every value follows the tree walker's dynamic semantics
    ({!Ir_interp}) exactly: an undefined register reads as [VI 0L],
    narrow integers wrap, [F32] arithmetic rounds, [sdiv]/[srem] by zero
    give 0, and every implicit int/float coercion is a term of its own.

    {b Terms.}  Terms live in tables made for one proof.  An integer
    term is a constant, an atom, or an affine form over atoms
    ({!Analysis.Scev.affine}, keyed by atom id) whose coefficients stay
    small enough to compute exactly, so equal affine forms are equal
    modulo 2{^64}; a narrow wrap is dropped where the atoms' ranges prove
    it exact.  Float terms match exactly, except the accumulators
    {!Analysis.Reduction} certifies: their updates, every [reduce] and
    every further add (multiply) of such a sum build one AC node whose
    operands are sorted by term id with the identity dropped, so S's
    left fold equals T's lane accumulators, horizontal combine and
    remainder.

    {b Memory.}  Each array is a version plus a map of writes whose
    indices are pairwise provably distinct.  A load forwards from a write
    at an identical index, reads the version when provably distinct from
    every write, and gives up otherwise.  Every access must be provably
    in bounds.

    {b Loops.}  Both sides run to each loop that holds a loop and to
    each top-level innermost loop the syntactic pass picked; inside a
    nest an innermost loop runs with its variable concrete.  A loop
    that contains a loop must appear on both sides with equal header
    terms, and a top-level innermost loop of S meets T's loops in
    segments: T's main loop (the same variable, stepping by K = VF * IF
    times S's step) and then its remainder (K = 1).  Each is proved by
    induction over its iterations where it runs at least twice, and runs
    concretely otherwise.  One induction step runs one iteration of the
    nest on each side, or one block: K iterations of S's body against
    one of T's, from a coupled state — the loop variable a fresh symbol
    with its range, every register a body writes and may read before
    writing it a fresh start value (shared when both read it), every
    array either body writes a shared fresh version.  Every other
    register keeps what it held: the step never reads it.  The written
    arrays, and the registers whose start values reach them, what nested
    proofs compared, or their own end values (the carried ones), must be
    equal on both sides at entry and after the step, and keep their
    shape.  A reduction S carries in one register and T in lane
    accumulators is coupled by a lane invariant instead: S's register
    equals the reduction of T's value of it and all of T's lanes, an
    integer lane within its type's range.  A start value used only where
    no compared term sees it may change shape, as long as its uses would
    not trap differently: that covers the vectorizer's clones of
    registers undefined at entry ([VI 0]) that the loop makes floats.  A
    carried register that enters as an integer and leaves as a float
    answers "unknown".  The exit state gets fresh symbols, except for
    values that do not depend on the iteration and for registers no
    instruction reads after the loop.

    {b Cost.}  A proof costs what it executes, not the trip count: a
    single loop costs one block of K iterations of S and one of T, S's
    K updates of an accumulator summed once, plus a one-iteration block
    or a few concrete iterations for the remainder.  A step's
    bookkeeping scans the registers with a start value and those the
    step wrote, and the per-loop facts (written and live-in registers,
    stored arrays, certified reductions) are computed once per loop.

    {b Traps and fuel.}  Each side's step count is exact (the tree
    walker and the VM tick once per executed instruction and once per
    counted-loop iteration); a proof is refused when either could come
    near the 200M-step budget, so a proof never hides a transformed-only
    trap or fuel exhaustion the ladder would report.  The symbolic work per proof, counted in
    instructions and in the operands every node built copies, is
    bounded, which bounds a failed attempt's time and memory. *)

module Scev = Analysis.Scev
module IntMap = Scev.IntMap

exception Unknown of string

let unknown fmt = Printf.ksprintf (fun s -> raise (Unknown s)) fmt

type outcome = Proved | Unknown_because of string

(* ------------------------------------------------------------------ *)
(* Terms                                                                *)
(* ------------------------------------------------------------------ *)

type term = {
  id : int;
  node : node;
  top : int;  (** largest symbol id the term mentions, -1 for none *)
  lo : int;  (** integer range; [min_int]/[max_int] when unbounded *)
  hi : int;
  f32 : bool;  (** a float exactly representable in single precision *)
}

and node =
  | Ci of int64
  | Cf of int64  (** float bits *)
  | Sym  (** a fresh value; never shared by two terms *)
  | Lin of Scev.affine  (** atom term ids to coefficients, plus constant *)
  | Mon of term list  (** product of atoms, sorted by id *)
  | Wrap of Ir.scalar_ty * term  (** narrow-int wrap *)
  | IOp of Ir.ibin * term * term  (** integer ops outside the ring *)
  | Bit of Ir.ibin * term list  (** and / or / xor, flattened, sorted *)
  | ICmp of Ir.cmp * term * term
  | FCmp of Ir.cmp * term * term
  | SelI of term * term * term
  | SelF of term * term * term
  | F2I of term
  | I2F of term
  | R32 of term  (** round to single precision *)
  | FOp of Ir.fbin * Ir.scalar_ty * term * term
  | FAc of Ir.fbin * Ir.scalar_ty * term list  (** AC sum or product *)
  | Load of Ir.scalar_ty * term * term * int
      (** version, and the index as base term plus constant offset *)

let rec list_eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> x == y && list_eq a b
  | _ -> false

module Table = Hashtbl.Make (struct
  type t = node

  let equal a b =
    match (a, b) with
    | Ci x, Ci y | Cf x, Cf y -> Int64.equal x y
    | Lin x, Lin y -> x.Scev.const = y.Scev.const
                      && IntMap.equal Int.equal x.Scev.coeffs y.Scev.coeffs
    | Mon x, Mon y -> list_eq x y
    | Wrap (s, x), Wrap (s', y) -> s = s' && x == y
    | IOp (o, a, b), IOp (o', a', b') -> o = o' && a == a' && b == b'
    | Bit (o, x), Bit (o', y) -> o = o' && list_eq x y
    | ICmp (o, a, b), ICmp (o', a', b') | FCmp (o, a, b), FCmp (o', a', b') ->
        o = o' && a == a' && b == b'
    | SelI (c, a, b), SelI (c', a', b') | SelF (c, a, b), SelF (c', a', b') ->
        c == c' && a == a' && b == b'
    | F2I x, F2I y | I2F x, I2F y | R32 x, R32 y -> x == y
    | FOp (o, s, a, b), FOp (o', s', a', b') ->
        o = o' && s = s' && a == a' && b == b'
    | FAc (o, s, x), FAc (o', s', y) -> o = o' && s = s' && list_eq x y
    | Load (s, v, b, o), Load (s', v', b', o') ->
        s = s' && v == v' && b == b' && o = o'
    | _ -> false

  let mix h x = (h * 65599) + x
  let ids h l = List.fold_left (fun h t -> mix h t.id) h l

  let hash n =
    (match n with
    | Ci x -> mix 1 (Hashtbl.hash x)
    | Cf x -> mix 2 (Hashtbl.hash x)
    | Sym -> 3
    | Lin a ->
        IntMap.fold (fun k c h -> mix (mix h k) c) a.Scev.coeffs
          (mix 4 a.Scev.const)
    | Mon l -> ids 5 l
    | Wrap (s, x) -> mix (mix 6 (Hashtbl.hash s)) x.id
    | IOp (o, a, b) -> mix (mix (mix 7 (Hashtbl.hash o)) a.id) b.id
    | Bit (o, l) -> ids (mix 8 (Hashtbl.hash o)) l
    | ICmp (o, a, b) -> mix (mix (mix 9 (Hashtbl.hash o)) a.id) b.id
    | FCmp (o, a, b) -> mix (mix (mix 10 (Hashtbl.hash o)) a.id) b.id
    | SelI (c, a, b) -> mix (mix (mix 11 c.id) a.id) b.id
    | SelF (c, a, b) -> mix (mix (mix 12 c.id) a.id) b.id
    | F2I x -> mix 13 x.id
    | I2F x -> mix 14 x.id
    | R32 x -> mix 15 x.id
    | FOp (o, s, a, b) ->
        mix (mix (mix (mix 16 (Hashtbl.hash o)) (Hashtbl.hash s)) a.id) b.id
    | FAc (o, s, l) -> ids (mix (mix 17 (Hashtbl.hash o)) (Hashtbl.hash s)) l
    | Load (s, v, b, o) -> mix (mix (mix (mix 18 (Hashtbl.hash s)) v.id) b.id) o)
    land max_int
end)

(* Symbolic work one proof may do, summed over both sides: a unit per
   instruction evaluated and per unrolled iteration, plus a unit per
   operand of every variable-size node built (affine atoms, product
   factors, AC and bit-op operands), per operand an AC merge copies and
   per atom a range computation visits.  Building, hashing and ranging a
   node costs its size, so a long reduction, whose every update copies
   the sum so far, reaches the bound after quadratically many units
   instead of running on: the bound caps both the time and the per-proof
   table.  Loopgen's largest nests, its gemms, take under 6k at any of
   the 35 plans; a proof that reaches the bound answers "unknown". *)
let work_bound = 200_000

(* A proof is refused when either side's exact instruction count passes
   half of the VM's and the tree walker's 200M-step fuel. *)
let fuel_bound = 100_000_000

type ctx = {
  tbl : term Table.t;
  mutable next : int;
  mutable by_id : term array;  (** every term, by id *)
  mutable work : int;
}

let charge c n =
  c.work <- c.work + n;
  if c.work > work_bound then unknown "symbolic work bound reached"

let size = function
  | Lin a -> IntMap.cardinal a.Scev.coeffs
  | Mon l | Bit (_, l) | FAc (_, _, l) -> List.length l
  | _ -> 0

let register c t =
  if t.id >= Array.length c.by_id then begin
    let bigger = Array.make (2 * Array.length c.by_id) t in
    Array.blit c.by_id 0 bigger 0 (Array.length c.by_id);
    c.by_id <- bigger
  end;
  c.by_id.(t.id) <- t

let intern c node ~top ~lo ~hi ~f32 =
  charge c (size node);
  match Table.find c.tbl node with
  | t -> t
  | exception Not_found ->
      let t = { id = c.next; node; top; lo; hi; f32 } in
      c.next <- c.next + 1;
      Table.add c.tbl node t;
      register c t;
      t

(** A fresh symbol; an integer one may carry its range. *)
let sym ?(lo = min_int) ?(hi = max_int) c =
  let t = { id = c.next; node = Sym; top = c.next; lo; hi; f32 = false } in
  c.next <- c.next + 1;
  register c t;
  t

let top2 a b = max a.top b.top
let top_list l = List.fold_left (fun m t -> max m t.top) (-1) l

(* ------------------------------------------------------------------ *)
(* Integer ranges                                                       *)
(* ------------------------------------------------------------------ *)

(* Range arithmetic saturates to "unbounded" well inside native ints. *)
let lim = 1 lsl 61

let bounded lo hi = lo > min_int && hi < max_int

let sat x = if x > lim || x < -lim then None else Some x

let add_r (alo, ahi) (blo, bhi) =
  if bounded alo ahi && bounded blo bhi then
    match (sat (alo + blo), sat (ahi + bhi)) with
    | Some lo, Some hi -> (lo, hi)
    | _ -> (min_int, max_int)
  else (min_int, max_int)

let mul_k k (lo, hi) =
  if k = 0 then (0, 0)
  else if (not (bounded lo hi)) || abs lo > lim / abs k || abs hi > lim / abs k
  then (min_int, max_int)
  else if k > 0 then (k * lo, k * hi)
  else (k * hi, k * lo)

let mul_r (alo, ahi) (blo, bhi) =
  if not (bounded alo ahi && bounded blo bhi) then (min_int, max_int)
  else
    let prods = [ (alo, blo); (alo, bhi); (ahi, blo); (ahi, bhi) ] in
    if List.exists (fun (x, y) -> x <> 0 && abs y > lim / abs x) prods then
      (min_int, max_int)
    else
      let ps = List.map (fun (x, y) -> x * y) prods in
      (List.fold_left min max_int ps, List.fold_left max min_int ps)

let ty_range : Ir.scalar_ty -> int * int = function
  | Ir.I1 -> (0, 1)
  | Ir.I8 -> (-128, 127)
  | Ir.I16 -> (-32768, 32767)
  | Ir.I32 -> (-2147483648, 2147483647)
  | Ir.I64 | Ir.F32 | Ir.F64 -> (min_int, max_int)

let width : Ir.scalar_ty -> int = function
  | Ir.I1 -> 1
  | Ir.I8 -> 8
  | Ir.I16 -> 16
  | Ir.I32 -> 32
  | Ir.I64 | Ir.F32 | Ir.F64 -> 64

(* does [t]'s range prove [wrap_int w t = t]? *)
let fits (w : Ir.scalar_ty) t =
  match w with
  | Ir.I64 | Ir.F32 | Ir.F64 -> true
  | _ ->
      let lo, hi = ty_range w in
      t.lo >= lo && t.hi <= hi

(* ------------------------------------------------------------------ *)
(* Integer terms                                                        *)
(* ------------------------------------------------------------------ *)

(* coefficients and constants of an affine form stay below this, so its
   arithmetic is exact in native ints *)
let coeff_lim = 1 lsl 40

exception Too_big

let small (x : int64) =
  Int64.compare x (Int64.of_int coeff_lim) <= 0
  && Int64.compare x (Int64.of_int (-coeff_lim)) >= 0

let ci c (x : int64) =
  let lo, hi =
    if small x then (Int64.to_int x, Int64.to_int x) else (min_int, max_int)
  in
  intern c (Ci x) ~top:(-1) ~lo ~hi ~f32:false

let const_of t = match t.node with Ci x -> Some x | _ -> None

(* an integer term as an affine form over atom ids; a constant too large
   for exact affine arithmetic is an atom of its own *)
let aff_of (t : term) : Scev.affine =
  match t.node with
  | Ci x when small x -> { Scev.coeffs = IntMap.empty; const = Int64.to_int x }
  | Lin a -> a
  | _ -> { Scev.coeffs = IntMap.singleton t.id 1; const = 0 }

let range_aff c (a : Scev.affine) =
  charge c (IntMap.cardinal a.Scev.coeffs);
  IntMap.fold
    (fun id k r ->
      let t = c.by_id.(id) in
      add_r r (mul_k k (t.lo, t.hi)))
    a.Scev.coeffs (a.Scev.const, a.Scev.const)

let mk_lin c (a : Scev.affine) : term =
  if abs a.Scev.const > coeff_lim
     || IntMap.exists (fun _ k -> abs k > coeff_lim) a.Scev.coeffs
  then raise Too_big;
  if IntMap.is_empty a.Scev.coeffs then ci c (Int64.of_int a.Scev.const)
  else
    let id, k = IntMap.min_binding a.Scev.coeffs in
    if k = 1 && a.Scev.const = 0 && fst (IntMap.max_binding a.Scev.coeffs) = id
    then c.by_id.(id)
    else
        let lo, hi = range_aff c a in
        let top =
          IntMap.fold (fun id _ m -> max m c.by_id.(id).top) a.Scev.coeffs (-1)
        in
        intern c (Lin a) ~top ~lo ~hi ~f32:false

let affine = function Scev.Affine a -> a | Scev.Unknown -> raise Too_big

(* a term outside the affine fragment: opaque, operands sorted when the
   operation commutes so both sides build one node *)
let iop c (op : Ir.ibin) a b =
  let a, b =
    match op with
    | (Ir.Add | Ir.Mul) when b.id < a.id -> (b, a)
    | _ -> (a, b)
  in
  let lo, hi =
    match (op, const_of b) with
    | Ir.SDiv, Some d when d <> 0L && small d && bounded a.lo a.hi ->
        let d = Int64.to_int d in
        (min (a.lo / d) (a.hi / d), max (a.lo / d) (a.hi / d))
    | Ir.SRem, Some d when d <> 0L && small d ->
        let m = abs (Int64.to_int d) - 1 in
        if a.lo >= 0 then (0, m) else (-m, m)
    | Ir.AShr, Some s when bounded a.lo a.hi ->
        let s = Int64.to_int (Int64.logand s 63L) in
        (a.lo asr s, a.hi asr s)
    | _ -> (min_int, max_int)
  in
  intern c (IOp (op, a, b)) ~top:(top2 a b) ~lo ~hi ~f32:false

(* the term of [a], whose atoms [t] already holds, with [t]'s range
   mapped by [range]: a shift or a scaling of [t] needs no new range or
   top computed over the atoms *)
let remake c (t : term) (a : Scev.affine) range : term =
  if abs a.Scev.const > coeff_lim then raise Too_big;
  if IntMap.is_empty a.Scev.coeffs then ci c (Int64.of_int a.Scev.const)
  else if a.Scev.const = 0 && IntMap.cardinal a.Scev.coeffs = 1
          && snd (IntMap.choose a.Scev.coeffs) = 1
  then c.by_id.(fst (IntMap.choose a.Scev.coeffs))
  else
    let lo, hi = range (t.lo, t.hi) in
    intern c (Lin a) ~top:t.top ~lo ~hi ~f32:false

(* [t + k] for a small constant [k] *)
let shift c t k =
  if k = 0 then t
  else
    let a = aff_of t in
    remake c t { a with Scev.const = a.Scev.const + k } (add_r (k, k))

let add c a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> ci c (Int64.add x y)
  | None, Some y when small y -> (
      try shift c a (Int64.to_int y) with Too_big -> iop c Ir.Add a b)
  | Some x, None when small x -> (
      try shift c b (Int64.to_int x) with Too_big -> iop c Ir.Add a b)
  | _ -> (
      try mk_lin c (affine (Scev.add_sv (Scev.Affine (aff_of a))
                              (Scev.Affine (aff_of b))))
      with Too_big -> iop c Ir.Add a b)

let sub c a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> ci c (Int64.sub x y)
  | _ -> (
      try mk_lin c (affine (Scev.sub_sv (Scev.Affine (aff_of a))
                              (Scev.Affine (aff_of b))))
      with Too_big -> iop c Ir.Sub a b)

(* [k * t] for a small constant [k], exactly *)
let scale c k (t : term) : term =
  let a = aff_of t in
  let ok x = k = 0 || abs x <= coeff_lim / abs k in
  if abs k > coeff_lim || not (ok a.Scev.const && IntMap.for_all (fun _ x -> ok x) a.Scev.coeffs)
  then raise Too_big;
  if k = 1 then t
  else remake c t (affine (Scev.mul_sv (Scev.const_aff k) (Scev.Affine a))) (mul_k k)

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' -> if x.id <= y.id then x :: merge a' b else y :: merge a b'

(* the product of two atoms: a monomial, nested products flattened *)
let mon c x y =
  let factors t = match t.node with Mon l -> l | _ -> [ t ] in
  let l = merge (factors x) (factors y) in
  let lo, hi = mul_r (x.lo, x.hi) (y.lo, y.hi) in
  intern c (Mon l) ~top:(top_list l) ~lo ~hi ~f32:false

let mul c a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> ci c (Int64.mul x y)
  | Some x, None when small x -> (
      try scale c (Int64.to_int x) b with Too_big -> iop c Ir.Mul a b)
  | None, Some y when small y -> (
      try scale c (Int64.to_int y) a with Too_big -> iop c Ir.Mul a b)
  | _ -> (
      let fa = aff_of a and fb = aff_of b in
      try
        match (Scev.is_const (Scev.Affine fa), Scev.is_const (Scev.Affine fb)) with
        | Some _, _ | _, Some _ -> raise Too_big (* a constant too large *)
        | None, None ->
            (* distribute: a polynomial normal form, kept small *)
            let terms (f : Scev.affine) =
              IntMap.bindings f.Scev.coeffs
              |> List.map (fun (id, k) -> (Some c.by_id.(id), k))
              |> fun l -> if f.Scev.const = 0 then l else (None, f.Scev.const) :: l
            in
            let ta = terms fa and tb = terms fb in
            if List.length ta * List.length tb > 16 then raise Too_big;
            List.fold_left
              (fun acc (x, kx) ->
                List.fold_left
                  (fun acc (y, ky) ->
                    let prod =
                      match (x, y) with
                      | None, None -> ci c (Int64.of_int 1)
                      | Some x, None | None, Some x -> x
                      | Some x, Some y -> mon c x y
                    in
                    let k =
                      if kx <> 0 && abs ky > coeff_lim / abs kx then raise Too_big
                      else kx * ky
                    in
                    add c acc (scale c k prod))
                  acc tb)
              (ci c 0L) ta
      with Too_big -> iop c Ir.Mul a b)

let identity_bits (op : Ir.ibin) : int64 option =
  match op with
  | Ir.And -> Some (-1L)
  | Ir.Or | Ir.Xor -> Some 0L
  | _ -> None

(** and / or / xor as one flattened, sorted node; constants folded, the
    identity dropped. *)
let bit c (op : Ir.ibin) (xs : term list) : term =
  let f =
    match op with
    | Ir.And -> Int64.logand
    | Ir.Or -> Int64.logor
    | _ -> Int64.logxor
  in
  let ident = Option.get (identity_bits op) in
  let flat =
    List.concat_map
      (fun t -> match t.node with Bit (o, l) when o = op -> l | _ -> [ t ])
      xs
  in
  let k, rest =
    List.fold_left
      (fun (k, rest) t ->
        match t.node with Ci x -> (f k x, rest) | _ -> (k, t :: rest))
      (ident, []) flat
  in
  let rest = List.sort (fun a b -> compare a.id b.id) rest in
  let ops = if Int64.equal k ident then rest else ci c k :: rest in
  let ops = List.sort (fun a b -> compare a.id b.id) ops in
  match ops with
  | [] -> ci c ident
  | [ t ] -> t
  | _ ->
      (* sign-extended k-bit operands give a sign-extended k-bit result *)
      let lo, hi =
        List.fold_left
          (fun (lo, hi) t -> (min lo t.lo, max hi t.hi))
          (max_int, min_int) ops
      in
      let lo, hi =
        if not (bounded lo hi) then (min_int, max_int)
        else
          let rec pow p = if -p <= lo && hi < p then (-p, p - 1) else pow (2 * p) in
          if abs lo > lim / 2 || abs hi > lim / 2 then (min_int, max_int)
          else pow 1
      in
      intern c (Bit (op, ops)) ~top:(top_list ops) ~lo ~hi ~f32:false

(* [t] with every wrap of at least [w]'s width removed that sits in a
   ring position (a sum or a product) or is a bitwise operation's
   operand: the ring operations commute with reduction modulo 2^w, and
   the low w bits of a bitwise result depend only on its operands' low w
   bits, so [wrap w t = wrap w (strip w t)] *)
let rec strip c (w : Ir.scalar_ty) (t : term) : term =
  match t.node with
  | Wrap (w', x) when width w' >= width w -> strip c w x
  | Lin a ->
      IntMap.fold
        (fun id k acc ->
          let x = c.by_id.(id) in
          let x' = strip c w x in
          if x' == x then acc
          else add c (sub c acc (mul c (ci c (Int64.of_int k)) x))
                 (mul c (ci c (Int64.of_int k)) x'))
        a.Scev.coeffs t
  | Mon l ->
      let l' = List.map (strip c w) l in
      if list_eq l l' then t
      else List.fold_left (mul c) (List.hd l') (List.tl l')
  | Bit (op, l) ->
      (* only the operands' own wraps: a bitwise term's operands are not
         searched further, so a shared subterm is never walked twice *)
      let rec unwrap x =
        match x.node with Wrap (w', y) when width w' >= width w -> unwrap y | _ -> x
      in
      let l' = List.map unwrap l in
      if list_eq l l' then t else bit c op l'
  | _ -> t

(** [wrap_int w t], dropping the wrap where [t]'s range proves it exact. *)
let wrap c (w : Ir.scalar_ty) (t : term) : term =
  if fits w t then t
  else
    match t.node with
    | Ci x -> ci c (Ir_interp.wrap_int w x)
    | _ ->
        let s = strip c w t in
        if fits w s then s
        else
          let lo, hi = ty_range w in
          intern c (Wrap (w, s)) ~top:s.top ~lo ~hi ~f32:false

(** [ibin_eval op a b] before the result's wrap. *)
let ibin c (op : Ir.ibin) a b : term =
  match (op, const_of a, const_of b) with
  | _, Some x, Some y -> ci c (Ir_interp.ibin_eval op x y)
  | Ir.Add, _, _ -> add c a b
  | Ir.Sub, _, _ -> sub c a b
  | Ir.Mul, _, _ -> mul c a b
  | Ir.Shl, _, Some s ->
      let s = Int64.to_int (Int64.logand s 63L) in
      if s < 40 then mul c a (ci c (Int64.shift_left 1L s)) else iop c op a b
  | (Ir.And | Ir.Or | Ir.Xor), _, _ -> bit c op [ a; b ]
  | (Ir.Shl | Ir.SDiv | Ir.SRem | Ir.AShr), _, _ -> iop c op a b

let icmp c (op : Ir.cmp) a b : term =
  let fold x y = ci c (Ir_interp.cmp_eval_i op x y) in
  match (const_of a, const_of b) with
  | Some x, Some y -> fold x y
  | _ -> (
      (* with both ranges bounded, [a - b] cannot wrap, so its sign
         decides the comparison *)
      match const_of (sub c a b) with
      | Some d when bounded a.lo a.hi && bounded b.lo b.hi -> fold d 0L
      | _ -> intern c (ICmp (op, a, b)) ~top:(top2 a b) ~lo:0 ~hi:1 ~f32:false)

(* ------------------------------------------------------------------ *)
(* Float terms                                                          *)
(* ------------------------------------------------------------------ *)

let cf c (f : float) =
  let bits = Int64.bits_of_float f in
  intern c (Cf bits) ~top:(-1) ~lo:min_int ~hi:max_int
    ~f32:(Int64.equal (Int64.bits_of_float (Ir_interp.round_f32 f)) bits)

let fconst_of t =
  match t.node with Cf b -> Some (Int64.float_of_bits b) | _ -> None

let round32 c t =
  if t.f32 then t
  else
    match fconst_of t with
    | Some f -> cf c (Ir_interp.round_f32 f)
    | None -> intern c (R32 t) ~top:t.top ~lo:min_int ~hi:max_int ~f32:true

let wrapf c (s : Ir.scalar_ty) t = if s = Ir.F32 then round32 c t else t

let f2i c t =
  match fconst_of t with
  | Some f -> ci c (Int64.of_float f)
  | None -> intern c (F2I t) ~top:t.top ~lo:min_int ~hi:max_int ~f32:false

let i2f c t =
  match const_of t with
  | Some x -> cf c (Int64.to_float x)
  | None ->
      let exact = t.lo >= -(1 lsl 24) && t.hi <= 1 lsl 24 in
      intern c (I2F t) ~top:t.top ~lo:min_int ~hi:max_int ~f32:exact

let fop c (op : Ir.fbin) (s : Ir.scalar_ty) a b =
  match (fconst_of a, fconst_of b) with
  | Some x, Some y -> cf c (Ir_interp.wrap_float s (Ir_interp.fbin_eval op x y))
  | _ -> intern c (FOp (op, s, a, b)) ~top:(top2 a b) ~lo:min_int ~hi:max_int
           ~f32:(s = Ir.F32)

let is_fac (op : Ir.fbin) (s : Ir.scalar_ty) t =
  match t.node with FAc (o, s', _) -> o = op && s' = s | _ -> false

(** The AC node of [op] (FAdd or FMul) over [xs]: nested nodes of the
    same operation flattened, constants folded, the identity dropped,
    operands sorted by id. *)
let is_ident (op : Ir.fbin) t =
  match t.node with
  | Cf b ->
      let f = Int64.float_of_bits b in
      if op = Ir.FMul then f = 1.0 else f = 0.0
  | _ -> false

let fac c (op : Ir.fbin) (s : Ir.scalar_ty) (xs : term list) : term =
  let is_ident = is_ident op in
  let ops, _ =
    List.fold_left
      (fun (acc, n) t ->
        let l =
          match t.node with
          | FAc (o, s', l) when o = op && s' = s -> l
          | _ -> if is_ident t then [] else [ t ]
        in
        match l with
        | [] -> (acc, n)
        | _ ->
            (* the merge copies the operands so far *)
            let n = n + List.length l in
            charge c n;
            (merge acc l, n))
      ([], 0) xs
  in
  match ops with
  | [] -> cf c (if op = Ir.FMul then 1.0 else 0.0)
  | _ ->
      (* a one-operand node stays a node: it marks a value a certified
         reduction produced, which a later combine continues *)
      intern c (FAc (op, s, ops)) ~top:(top_list ops) ~lo:min_int ~hi:max_int
        ~f32:(s = Ir.F32)

(** {!fac} over many operands at once: one sort, not a merge per operand
    (the same node). *)
let fac_all c (op : Ir.fbin) (s : Ir.scalar_ty) (xs : term list) : term =
  let ops =
    List.concat_map
      (fun t ->
        match t.node with
        | FAc (o, s', l) when o = op && s' = s -> l
        | _ -> if is_ident op t then [] else [ t ])
      xs
  in
  match ops with
  | [] | [ _ ] -> fac c op s ops
  | _ ->
      charge c (List.length ops);
      let ops = List.sort (fun a b -> Int.compare a.id b.id) ops in
      intern c (FAc (op, s, ops)) ~top:(top_list ops) ~lo:min_int ~hi:max_int
        ~f32:(s = Ir.F32)

(* ------------------------------------------------------------------ *)
(* Values                                                               *)
(* ------------------------------------------------------------------ *)

(** A register's value, tagged as the tree walker tags it.  [St] wraps a
    value an induction step starts from, and records how the step used
    it: the step relies on that value's shape only as far as those uses
    trap or convert differently on another shape.  An operation that
    passes a value on unchanged (a scalar [splat] or [stride], a [mov]
    that converts nothing) passes the wrapper on, so the uses are
    recorded where the value is consumed; a wrapper still held by another
    register when the step ends counts as a use of the shape. *)
type v =
  | I of term
  | F of term
  | VI of term array
  | VF of term array
  | St of start

and start = { s_v : v; mutable s_uses : int }

(* the ways a value can be used, as a bit set *)
let use_scalar = 1 (* [as_int] / [as_float]: traps on a vector *)
let use_vec_i = 2 (* [as_vec_i]: traps on a float or another width *)
let use_vec_f = 4 (* [as_vec_f]: traps on an int vector *)
let use_shape = 8 (* anything else: the shape itself flows on *)

let raw = function St s -> s.s_v | v -> v

(** [v] as used in way [k]. *)
let use k = function
  | St s ->
      s.s_uses <- s.s_uses lor k;
      s.s_v
  | v -> v

let lanes_eq a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun k x -> if x != b.(k) then ok := false) a;
      !ok)

let equal_v a b =
  match (raw a, raw b) with
  | I x, I y | F x, F y -> x == y
  | VI x, VI y | VF x, VF y -> lanes_eq x y
  | _ -> false

let same_shape a b =
  match (raw a, raw b) with
  | I _, I _ | F _, F _ -> true
  | VI x, VI y | VF x, VF y -> Array.length x = Array.length y
  | _ -> false

let top_of v =
  match raw v with
  | I t | F t -> t.top
  | VI a | VF a -> Array.fold_left (fun m t -> max m t.top) (-1) a
  | St _ -> assert false

let terms_of v =
  match raw v with
  | I t | F t -> [ t ]
  | VI a | VF a -> Array.to_list a
  | St _ -> assert false

let fresh_like c v =
  match raw v with
  | I _ -> I (sym c)
  | F _ -> F (sym c)
  | VI a -> VI (Array.map (fun _ -> sym c) a)
  | VF a -> VF (Array.map (fun _ -> sym c) a)
  | St _ -> assert false

let as_int c v =
  match use use_scalar v with
  | I t -> t
  | F t -> f2i c t
  | _ -> unknown "vector where a scalar is read"

let as_float c v =
  match use use_scalar v with
  | F t -> t
  | I t -> i2f c t
  | _ -> unknown "vector where a scalar is read"

let as_vec_i n v =
  match use use_vec_i v with
  | VI a when Array.length a = n -> a
  | I t -> Array.make n t
  | _ -> unknown "vector shape"

let as_vec_f c n v =
  match use use_vec_f v with
  | VF a when Array.length a = n -> a
  | F t -> Array.make n t
  | I t -> Array.make n (i2f c t)
  | _ -> unknown "vector shape"

(* can uses [k] of a value of shape [a] meet one of shape [b] without a
   different trap?  Values aside: those matter only where the start
   value reaches a compared term, and such a register keeps its shape *)
let uses_fit k a b =
  let scalar = function I _ | F _ -> true | _ -> false in
  same_shape a b
  || k land use_shape = 0
     && (k land use_scalar = 0 || (scalar a && scalar b))
     && (k land use_vec_i = 0 || (match raw b with I _ -> true | _ -> false))
     && (k land use_vec_f = 0 || scalar b)

(* ------------------------------------------------------------------ *)
(* Symbolic memory                                                      *)
(* ------------------------------------------------------------------ *)

(* writes grouped by the index's non-constant part: offset -> cell *)
type group = { g_base : term; g_cells : term IntMap.t }

type arr = { ver : term; groups : group IntMap.t }

let arr_equal a b =
  a.ver == b.ver
  && IntMap.equal
       (fun g h -> g.g_base == h.g_base && IntMap.equal ( == ) g.g_cells h.g_cells)
       a.groups b.groups

(* index = base + offset, the base a term with no constant part *)
let decompose c (idx : term) : term * int =
  match idx.node with
  | Ci x when small x -> (ci c 0L, Int64.to_int x)
  | Lin a -> (mk_lin c { a with Scev.const = 0 }, a.Scev.const)
  | _ -> (idx, 0)

(* is [base + off] provably distinct from every cell of [g]? *)
let distinct c base off g =
  if g.g_base == base then not (IntMap.mem off g.g_cells)
  else
    let lo, hi =
      range_aff c
        (affine (Scev.sub_sv (Scev.Affine (aff_of base))
                   (Scev.Affine (aff_of g.g_base))))
    in
    (* the keys differ by [d + off - off'] with [d] in [lo, hi] *)
    bounded lo hi
    &&
    match IntMap.find_first_opt (fun k -> k >= off + lo) g.g_cells with
    | Some (k, _) -> k > off + hi
    | None -> true

(* ------------------------------------------------------------------ *)
(* One side's state                                                     *)
(* ------------------------------------------------------------------ *)

type arr_info = { ai_float : bool; ai_size : int }

type env = {
  ctx : ctx;
  mutable deps : term list;
      (** terms the enclosing induction step's nested proofs compared *)
  arr_index : (string, int) Hashtbl.t;
  arr_info : arr_info array;
  blocks : int list;  (** ids of the top-level loops stepped by blocks *)
}

(* What an induction step needs to know about a loop body before it
   runs, by register number. *)
type facts = {
  wr : Bytes.t;  (** registers the body writes, nested loop variables too *)
  rd : Bytes.t;  (** registers the body may read before writing them *)
  count : int array;  (** per register, the operands that read it *)
  live : Ir.reg list;  (** written registers in [rd], ascending *)
  oob : bool;  (** the body writes a register outside the planes *)
  stores : string list;  (** arrays the body stores to *)
}

(* The registers one side wrote during induction steps, in write order:
   a register is logged once per step that writes it, and a step's
   writes are the log from its start position on. *)
type wlog = {
  mutable log : int list;  (** the latest write first *)
  mutable len : int;
  mutable from : int;  (** where the innermost step's writes start; -1 outside any *)
  last : int array;  (** per register, its last position in [log], or -1 *)
}

type side = {
  fn : Ir.func;
  mutable regs : v array;
  mutable arrs : arr array;
  mutable steps : int;
  mutable ret : v option option;
  acs : (int, Ir.reg list) Hashtbl.t;
      (** certified float accumulator updates, by innermost loop id *)
  reads : int array Lazy.t;  (** per register, the operands of [fn] that read it *)
  wlog : wlog;
}

let copy s = { s with regs = Array.copy s.regs; arrs = Array.copy s.arrs }

let restore s (from : side) =
  s.regs <- from.regs;
  s.arrs <- from.arrs;
  s.steps <- from.steps;
  s.ret <- from.ret

let read s r =
  if r < 0 || r >= Array.length s.regs then unknown "register out of range";
  s.regs.(r)

(* a write the enclosing induction steps see *)
let set s r v =
  s.regs.(r) <- v;
  let w = s.wlog in
  if w.from >= 0 && w.last.(r) < w.from then begin
    w.log <- r :: w.log;
    w.last.(r) <- w.len;
    w.len <- w.len + 1
  end

let array_of e name =
  match Hashtbl.find_opt e.arr_index name with
  | Some a -> a
  | None -> unknown "unknown array"

(* An access's cell: the index's base term and constant offset
   ({!decompose}), and the index's range. *)
type cell_ref = { base : term; off : int; lo : int; hi : int }

let cell_of c (idx : term) : cell_ref =
  let base, off = decompose c idx in
  { base; off; lo = idx.lo; hi = idx.hi }

(* lane [k] of a vector access with [stride] *)
let lane (r : cell_ref) k stride =
  let d = k * stride in
  if bounded r.lo r.hi then { r with off = r.off + d; lo = r.lo + d; hi = r.hi + d }
  else { r with off = r.off + d }

let in_bounds e a (r : cell_ref) =
  if not (r.lo >= 0 && r.hi < e.arr_info.(a).ai_size) then
    unknown "access not provably in bounds"

(* [mem_load_scalar] *)
let load e s (sty : Ir.scalar_ty) a (r : cell_ref) : v =
  let c = e.ctx in
  in_bounds e a r;
  let st = s.arrs.(a) in
  let cell =
    match IntMap.find_opt r.base.id st.groups with
    | Some g when IntMap.mem r.off g.g_cells -> Some (IntMap.find r.off g.g_cells)
    | _ ->
        if IntMap.for_all (fun _ g -> distinct c r.base r.off g) st.groups then None
        else unknown "load may alias a write"
  in
  let fresh ~lo ~hi ~f32 =
    intern c (Load (sty, st.ver, r.base, r.off)) ~top:(top2 st.ver r.base) ~lo ~hi
      ~f32
  in
  if e.arr_info.(a).ai_float then
    F
      (match cell with
      | Some t -> wrapf c sty t
      | None -> fresh ~lo:min_int ~hi:max_int ~f32:(sty = Ir.F32))
  else
    I
      (match cell with
      | Some t -> wrap c sty t
      | None ->
          let lo, hi = ty_range sty in
          fresh ~lo ~hi ~f32:false)

(* [mem_store_scalar] *)
let store e s (sty : Ir.scalar_ty) a (r : cell_ref) (v : v) =
  let c = e.ctx in
  in_bounds e a r;
  let cell =
    if e.arr_info.(a).ai_float then wrapf c sty (as_float c v)
    else wrap c sty (as_int c v)
  in
  let st = s.arrs.(a) in
  let base = r.base and off = r.off in
  let g = IntMap.find_opt base.id st.groups in
  (match g with
  | Some g when IntMap.mem off g.g_cells -> ()
  | _ ->
      IntMap.iter
        (fun bid g' ->
          if bid <> base.id && not (distinct c base off g') then
            unknown "store may alias a write")
        st.groups);
  let g =
    match g with Some g -> g | None -> { g_base = base; g_cells = IntMap.empty }
  in
  s.arrs.(a) <-
    { st with
      groups =
        IntMap.add base.id { g with g_cells = IntMap.add off cell g.g_cells }
          st.groups }

(* ------------------------------------------------------------------ *)
(* Evaluation, mirroring Ir_interp                                      *)
(* ------------------------------------------------------------------ *)

let eval_value e s (v : Ir.value) : v =
  match v with
  | Ir.Reg r -> read s r
  | Ir.IConst i -> I (ci e.ctx i)
  | Ir.FConst f -> F (cf e.ctx f)

let conv_i c (k : Ir.cast_kind) sty x : v =
  match k with
  | Ir.ZExt | Ir.SExt | Ir.Trunc -> I (wrap c sty x)
  | Ir.SiToFp -> F (wrapf c sty (i2f c x))
  | Ir.FpExt | Ir.FpTrunc | Ir.FpToSi -> unknown "int input to float cast"

let conv_f c (k : Ir.cast_kind) sty x : v =
  match k with
  | Ir.FpExt | Ir.FpTrunc -> F (wrapf c sty x)
  | Ir.FpToSi -> I (wrap c sty (f2i c x))
  | Ir.ZExt | Ir.SExt | Ir.Trunc | Ir.SiToFp -> unknown "float input to int cast"

let lanes_of_results (float : bool) (rs : v array) : v =
  if float then VF (Array.map (function F x -> x | _ -> unknown "cast shape") rs)
  else VI (Array.map (function I x -> x | _ -> unknown "cast shape") rs)

let eval_cast c (k : Ir.cast_kind) (to_ : Ir.ty) (v : v) : v =
  match (k, to_, v) with
  | (Ir.ZExt | Ir.SExt | Ir.Trunc), Ir.Scalar sty, I x -> I (wrap c sty x)
  | _ ->
  let sty = Ir.elem_ty to_ in
  let broadcast r =
    match (to_, r) with
    | Ir.Vec (n, _), I x -> VI (Array.make n x)
    | Ir.Vec (n, _), F x -> VF (Array.make n x)
    | _, r -> r
  in
  match use use_shape v with
  | I x -> broadcast (conv_i c k sty x)
  | F x -> broadcast (conv_f c k sty x)
  | VI a -> lanes_of_results (Ir.is_float_scalar sty) (Array.map (conv_i c k sty) a)
  | VF a -> lanes_of_results (Ir.is_float_scalar sty) (Array.map (conv_f c k sty) a)
  | St _ -> assert false

(* an add (multiply) of floats: an AC node when it is a certified
   accumulator's update or continues such a sum *)
let float_bin c ~ac (op : Ir.fbin) (s : Ir.scalar_ty) a b =
  if (op = Ir.FAdd || op = Ir.FMul) && (ac || is_fac op s a || is_fac op s b)
  then fac c op s [ a; b ]
  else fop c op s a b

let sel_i c cond a b =
  match const_of cond with
  | Some x -> if x <> 0L then a else b
  | None ->
      intern c (SelI (cond, a, b)) ~top:(max cond.top (top2 a b))
        ~lo:(min a.lo b.lo) ~hi:(max a.hi b.hi) ~f32:false

let sel_f c cond a b =
  match const_of cond with
  | Some x -> if x <> 0L then a else b
  | None ->
      intern c (SelF (cond, a, b)) ~top:(max cond.top (top2 a b)) ~lo:min_int
        ~hi:max_int ~f32:(a.f32 && b.f32)

let fcmp c op a b =
  match (fconst_of a, fconst_of b) with
  | Some x, Some y -> ci c (Ir_interp.cmp_eval_f op x y)
  | _ -> intern c (FCmp (op, a, b)) ~top:(top2 a b) ~lo:0 ~hi:1 ~f32:false

let eval_rvalue e s ~ac (rv : Ir.rvalue) : v =
  let c = e.ctx in
  match rv with
  | Ir.IBin (op, ty, a, b) -> (
      let sty = Ir.elem_ty ty in
      match ty with
      | Ir.Scalar _ ->
          let x = as_int c (eval_value e s a) and y = as_int c (eval_value e s b) in
          I (wrap c sty (ibin c op x y))
      | Ir.Vec (n, _) ->
          let va = as_vec_i n (eval_value e s a)
          and vb = as_vec_i n (eval_value e s b) in
          VI (Array.init n (fun k -> wrap c sty (ibin c op va.(k) vb.(k)))))
  | Ir.FBin (op, ty, a, b) -> (
      let sty = Ir.elem_ty ty in
      match ty with
      | Ir.Scalar _ ->
          let x = as_float c (eval_value e s a) and y = as_float c (eval_value e s b) in
          F (float_bin c ~ac op sty x y)
      | Ir.Vec (n, _) ->
          let va = as_vec_f c n (eval_value e s a)
          and vb = as_vec_f c n (eval_value e s b) in
          VF (Array.init n (fun k -> float_bin c ~ac op sty va.(k) vb.(k))))
  | Ir.ICmp (op, ty, a, b) -> (
      match ty with
      | Ir.Scalar _ ->
          let x = as_int c (eval_value e s a) and y = as_int c (eval_value e s b) in
          I (icmp c op x y)
      | Ir.Vec (n, _) ->
          let va = as_vec_i n (eval_value e s a)
          and vb = as_vec_i n (eval_value e s b) in
          VI (Array.init n (fun k -> icmp c op va.(k) vb.(k))))
  | Ir.FCmp (op, ty, a, b) -> (
      match ty with
      | Ir.Scalar _ ->
          let x = as_float c (eval_value e s a) and y = as_float c (eval_value e s b) in
          I (fcmp c op x y)
      | Ir.Vec (n, _) ->
          let va = as_vec_f c n (eval_value e s a)
          and vb = as_vec_f c n (eval_value e s b) in
          VI (Array.init n (fun k -> fcmp c op va.(k) vb.(k))))
  | Ir.Select (ty, cnd, a, b) -> (
      match ty with
      | Ir.Scalar sc ->
          let cv = as_int c (eval_value e s cnd) in
          if Ir.is_float_scalar sc then
            let x = as_float c (eval_value e s a) and y = as_float c (eval_value e s b) in
            F (sel_f c cv x y)
          else
            let x = as_int c (eval_value e s a) and y = as_int c (eval_value e s b) in
            I (sel_i c cv x y)
      | Ir.Vec (n, sc) ->
          let cv = as_vec_i n (eval_value e s cnd) in
          if Ir.is_float_scalar sc then
            let va = as_vec_f c n (eval_value e s a)
            and vb = as_vec_f c n (eval_value e s b) in
            VF (Array.init n (fun k -> sel_f c cv.(k) va.(k) vb.(k)))
          else
            let va = as_vec_i n (eval_value e s a)
            and vb = as_vec_i n (eval_value e s b) in
            VI (Array.init n (fun k -> sel_i c cv.(k) va.(k) vb.(k))))
  | Ir.Cast (k, _, to_, v) -> eval_cast c k to_ (eval_value e s v)
  | Ir.Load (ty, m) -> (
      if m.Ir.mask <> None then unknown "masked access";
      let a = array_of e m.Ir.base in
      let r = cell_of c (as_int c (eval_value e s m.Ir.index)) in
      match ty with
      | Ir.Scalar sc -> load e s sc a r
      | Ir.Vec (n, sc) ->
          let at k = load e s sc a (lane r k m.Ir.stride) in
          if Ir.is_float_scalar sc then VF (Array.init n (fun k -> as_float c (at k)))
          else VI (Array.init n (fun k -> as_int c (at k))))
  | Ir.Splat (ty, v) -> (
      match ty with
      | Ir.Scalar _ -> eval_value e s v
      | Ir.Vec (n, sc) ->
          if Ir.is_float_scalar sc then VF (Array.make n (as_float c (eval_value e s v)))
          else VI (Array.make n (wrap c sc (as_int c (eval_value e s v)))))
  | Ir.Extract (sc, v, lane) -> (
      match use use_shape (eval_value e s v) with
      | VI a when lane >= 0 && lane < Array.length a -> I (wrap c sc a.(lane))
      | VF a when lane >= 0 && lane < Array.length a -> F (wrapf c sc a.(lane))
      | _ -> unknown "extract shape")
  | Ir.Reduce (op, sc, v) -> (
      match use use_shape (eval_value e s v) with
      | VI a when Array.length a > 0 ->
          let f acc x =
            match op with
            | Ir.RAdd -> add c acc x
            | Ir.RMul -> mul c acc x
            | Ir.RAnd -> bit c Ir.And [ acc; x ]
            | Ir.ROr -> bit c Ir.Or [ acc; x ]
            | Ir.RXor -> bit c Ir.Xor [ acc; x ]
            | Ir.RMin | Ir.RMax -> unknown "min/max reduce"
          in
          I (wrap c sc (Array.fold_left f a.(0) (Array.sub a 1 (Array.length a - 1))))
      | VF a when Array.length a > 0 -> (
          match op with
          | Ir.RAdd -> F (fac c Ir.FAdd sc (Array.to_list a))
          | Ir.RMul -> F (fac c Ir.FMul sc (Array.to_list a))
          | _ -> unknown "float reduce")
      | _ -> unknown "reduce shape")
  | Ir.Mov (ty, v) ->
      let x = eval_value e s v in
      let moved =
        match (ty, raw x) with
        | Ir.Scalar sc, I t -> I (wrap c sc t)
        | Ir.Scalar sc, F t -> F (wrapf c sc t)
        | Ir.Vec (n, sc), I t -> VI (Array.make n (wrap c sc t))
        | Ir.Vec (n, sc), F t -> VF (Array.make n (wrapf c sc t))
        | _, v -> v
      in
      if equal_v moved x then x
      else begin
        ignore (use use_shape x);
        moved
      end
  | Ir.Stride (ty, v, step) -> (
      match ty with
      | Ir.Scalar _ -> eval_value e s v
      | Ir.Vec (n, sc) ->
          if Ir.is_float_scalar sc then unknown "float stride vector"
          else
            let base = as_int c (eval_value e s v) in
            VI (Array.init n (fun k -> wrap c sc (add c base (ci c (Int64.of_int (k * step)))))))

let tick e s =
  s.steps <- s.steps + 1;
  charge e.ctx 1

(* A certified reduction's update in a block of S: the addends it adds,
   collected instead of summed one by one, since nothing else reads the
   accumulator or the update. *)
type addends = {
  ad_update : Ir.reg;  (** [t] of [t = op acc, x; acc = mov t] *)
  ad_acc : Ir.reg;
  ad_float : bool;
  mutable ad_terms : term list;  (** the [x]s, the latest first *)
}

let rec addends_of r = function
  | [] -> None
  | a :: rest -> if a.ad_update = r then Some a else addends_of r rest

let exec_instr ?(sums = []) e s ~(acs : Ir.reg list) (i : Ir.instr) =
  tick e s;
  match i with
  | Ir.Def (r, rv) -> (
      if r < 0 || r >= Array.length s.regs then unknown "register out of range";
      match (addends_of r sums, rv) with
      | Some a, (Ir.FBin (_, _, x, y) | Ir.IBin (_, _, x, y)) ->
          let c = e.ctx in
          let v = eval_value e s (if x = Ir.Reg a.ad_acc then y else x) in
          a.ad_terms <- (if a.ad_float then as_float c v else as_int c v) :: a.ad_terms;
          set s r (read s a.ad_acc)
      | _ -> set s r (eval_rvalue e s ~ac:(acs <> [] && List.mem r acs) rv))
  | Ir.Store (ty, m, v) -> (
      let c = e.ctx in
      if m.Ir.mask <> None then unknown "masked access";
      let a = array_of e m.Ir.base in
      let r = cell_of c (as_int c (eval_value e s m.Ir.index)) in
      match ty with
      | Ir.Scalar sc -> store e s sc a r (eval_value e s v)
      | Ir.Vec (n, sc) ->
          let sv = eval_value e s v in
          let at k = lane r k m.Ir.stride in
          if Ir.is_float_scalar sc then
            let va = as_vec_f c n sv in
            Array.iteri (fun k x -> store e s sc a (at k) (F x)) va
          else
            let va = as_vec_i n sv in
            Array.iteri (fun k x -> store e s sc a (at k) (I x)) va)
  | Ir.CallI _ -> unknown "call"

(* the value [code] leaves, taken whole: its shape flows on *)
let exec_code e s ((is, v) : Ir.code) : v =
  List.iter (exec_instr e s ~acs:[]) is;
  use use_shape (eval_value e s v)

(* ------------------------------------------------------------------ *)
(* Loops                                                                *)
(* ------------------------------------------------------------------ *)

let rec has_loop (nodes : Ir.node list) =
  List.exists
    (function
      | Ir.Loop _ -> true
      | Ir.If { then_; else_; _ } -> has_loop then_ || has_loop else_
      | Ir.WhileLoop { w_body; _ } -> has_loop w_body
      | Ir.Block _ | Ir.Return _ | Ir.BreakN | Ir.ContinueN -> false)
    nodes

(* the reductions [l]'s body carries, its certified float updates
   recorded for [ac_defs] *)
let reductions s (l : Ir.loop) : Analysis.Reduction.reduction list =
  let reds =
    match Analysis.Reduction.analyze l with reds, _ -> reds | exception _ -> []
  in
  Hashtbl.replace s.acs l.Ir.l_id
    (List.filter_map
       (fun red ->
         if red.Analysis.Reduction.red_float then Some red.Analysis.Reduction.red_update
         else None)
       reds);
  reds

(* the registers whose update in [l] a certified float reduction owns:
   [t] of [t = fadd acc, x; acc = mov t] *)
let ac_defs s (l : Ir.loop) : Ir.reg list =
  match Hashtbl.find_opt s.acs l.Ir.l_id with
  | Some acs -> acs
  | None ->
      let float_update found = function
        | Ir.Def (_, Ir.FBin ((Ir.FAdd | Ir.FMul), _, _, _)) -> true
        | _ -> found
      in
      if Ir.fold_instrs float_update false l.Ir.l_body then ignore (reductions s l)
      else Hashtbl.replace s.acs l.Ir.l_id [];
      Hashtbl.find s.acs l.Ir.l_id

let const_int c (v : v) what : int64 =
  match const_of (as_int c v) with Some x -> x | None -> unknown "%s not constant" what

let var_ty (fn : Ir.func) (r : Ir.reg) : Ir.scalar_ty =
  if r >= Array.length fn.Ir.fn_regty then Ir.I64
  else match Ir.reg_ty fn r with Ir.Scalar s -> s | Ir.Vec _ -> Ir.I64

(* the increment [wrap_int sty (i + step)], refused where it wraps *)
let next_value sty (i : int64) (step : int) : int64 =
  let n = Int64.add i (Int64.of_int step) in
  let w = Ir_interp.wrap_int sty n in
  if not (Int64.equal w n) || not (small n) then unknown "loop variable wraps";
  w

(** A counted loop's trip count and its variable's exit value, in closed
    form: [Error] where the variable would leave ±2{^40} or wrap in its
    type, or the loop would not end within a million iterations. *)
let trip sty (cmp : Ir.cmp) (init : int64) (bound : int64) (step : int) :
    (int * int64, string) result =
  if Ir_interp.cmp_eval_i cmp init bound = 0L then Ok (0, init)
  else if not (small init) then Error "loop variable too large"
  else if not (small bound) then Error "trip count too large"
  else
    let i = Int64.to_int init and s = abs step in
    let up = step > 0 in
    (* how far the bound lies in the step's direction *)
    let d = if up then Int64.to_int bound - i else i - Int64.to_int bound in
    let n =
      match (cmp, up) with
      | (Ir.CLt, true | Ir.CGt, false) when s > 0 -> Some ((d + s - 1) / s)
      | (Ir.CLe, true | Ir.CGe, false) when s > 0 -> Some ((d / s) + 1)
      | Ir.CNe, _ when s > 0 && d > 0 && d mod s = 0 -> Some (d / s)
      | Ir.CEq, _ when s > 0 -> Some 1
      | _ -> None
    in
    match n with
    | Some n when n <= 1_000_000 ->
        let exit = Int64.of_int (i + (n * step)) in
        if small exit && Int64.equal (Ir_interp.wrap_int sty exit) exit then Ok (n, exit)
        else Error "loop variable wraps"
    | _ -> Error "trip count too large"

let trip_or_unknown sty cmp init bound step =
  match trip sty cmp init bound step with Ok x -> x | Error why -> unknown "%s" why

(* one iteration of an innermost loop's body; an iteration is work even
   when its body is empty, and the engines tick once for it *)
let iteration ?sums e s (l : Ir.loop) ~acs =
  charge e.ctx 1;
  s.steps <- s.steps + 1;
  List.iter
    (function
      | Ir.Block is -> List.iter (exec_instr ?sums e s ~acs) is
      | _ -> unknown "control flow in an innermost loop")
    l.Ir.l_body

(* an innermost loop's iterations on one side, from its variable's value
   on, at most [limit] of them; the reductions are analysed when the
   first iteration starts, so a loop that never runs costs none of its
   body *)
let iterate ?(limit = max_int) e s (l : Ir.loop) (bound : int64) =
  let c = e.ctx in
  let sty = var_ty s.fn l.Ir.l_var in
  let acs = lazy (ac_defs s l) in
  let rec go k =
    let i = const_int c (read s l.Ir.l_var) "loop variable" in
    if k < limit && Ir_interp.cmp_eval_i l.Ir.l_cmp i bound <> 0L then begin
      iteration e s l ~acs:(Lazy.force acs);
      let i' = const_int c (read s l.Ir.l_var) "loop variable" in
      set s l.Ir.l_var (I (ci c (next_value sty i' l.Ir.l_step)));
      go (k + 1)
    end
  in
  go 0

(* [l]'s header on one side: the variable set to its init value, and the
   init and bound, which must be constants *)
let header e side (l : Ir.loop) : int64 * int64 =
  let c = e.ctx in
  set side l.Ir.l_var (exec_code e side l.Ir.l_init);
  let b = const_int c (exec_code e side l.Ir.l_bound) "loop bound" in
  (const_int c (read side l.Ir.l_var) "loop init", b)

(* an innermost loop on one side, its variable concrete *)
let exec_inner e s (l : Ir.loop) =
  let _, bound = header e s l in
  iterate e s l bound

(* run [nodes] on one side up to the next loop that holds a loop or
   that [stop] picks *)
let rec exec_until e s ~top ~stop (nodes : Ir.node list) : Ir.node list =
  match nodes with
  | [] -> []
  | Ir.Block is :: rest ->
      List.iter (exec_instr e s ~acs:[]) is;
      exec_until e s ~top ~stop rest
  | Ir.Loop l :: rest ->
      if has_loop l.Ir.l_body || stop l then nodes
      else begin
        exec_inner e s l;
        exec_until e s ~top ~stop rest
      end
  | Ir.Return code :: _ when top ->
      s.ret <- Some (Option.map (exec_code e s) code);
      []
  | Ir.Return _ :: _ -> unknown "return inside a loop"
  | Ir.If _ :: _ -> unknown "if"
  | Ir.WhileLoop _ :: _ -> unknown "while loop"
  | (Ir.BreakN | Ir.ContinueN) :: _ -> unknown "break or continue"

let is_set (b : Bytes.t) r = r >= 0 && r < Bytes.length b && Bytes.get b r <> '\000'

(* [body]'s facts, in one pass: a register read while not definitely
   written yet may be read before it is written.  A loop or branch body
   may not run, so what it writes is not definite after it. *)
let scan nregs (body : Ir.node list) : facts =
  let wr = Bytes.make nregs '\000' and def = Bytes.make nregs '\000' in
  let rd = Bytes.make nregs '\000' and count = Array.make nregs 0 in
  let oob = ref false and reads = ref [] and stores = ref [] in
  (* what the current loop or branch body defined, undone after it *)
  let defs = ref [] in
  let read r =
    if r >= 0 && r < nregs then begin
      count.(r) <- count.(r) + 1;
      if Bytes.get def r = '\000' && Bytes.get rd r = '\000' then begin
        Bytes.set rd r '\001';
        reads := r :: !reads
      end
    end
  in
  let write r =
    if r < 0 || r >= nregs then oob := true
    else begin
      Bytes.set wr r '\001';
      if Bytes.get def r = '\000' then begin
        Bytes.set def r '\001';
        defs := r :: !defs
      end
    end
  in
  let instr i =
    Analysis.Reduction.iter_reads read i;
    match i with
    | Ir.Def (r, _) | Ir.CallI (Some r, _, _) -> write r
    | Ir.Store (_, m, _) -> stores := m.Ir.base :: !stores
    | Ir.CallI (None, _, _) -> ()
  in
  let code ((is, v) : Ir.code) =
    List.iter instr is;
    Analysis.Reduction.value_read read v
  in
  let rec walk ns = List.iter node ns
  and maybe ns =
    let outer = !defs in
    defs := [];
    walk ns;
    List.iter (fun r -> Bytes.set def r '\000') !defs;
    defs := outer
  and node = function
    | Ir.Block is -> List.iter instr is
    | Ir.If { cond; then_; else_ } ->
        code cond;
        maybe then_;
        maybe else_
    | Ir.Loop il ->
        code il.Ir.l_init;
        write il.Ir.l_var;
        code il.Ir.l_bound;
        maybe il.Ir.l_body
    | Ir.WhileLoop { w_cond; w_body } ->
        code w_cond;
        maybe w_body
    | Ir.Return c -> Option.iter code c
    | Ir.BreakN | Ir.ContinueN -> ()
  in
  walk body;
  { wr; rd; count; oob = !oob; stores = List.rev !stores;
    live = List.sort Int.compare (List.filter (is_set wr) !reads) }

(* a register [f]'s loop writes that no instruction reads once the loop
   is done: not read before it is written, and read nowhere outside the
   body *)
let dead s (f : facts) r =
  is_set f.wr r && (not (is_set f.rd r)) && f.count.(r) = (Lazy.force s.reads).(r)

let stored_arrays e (f : facts) : int list = List.map (array_of e) f.stores

(* ------------------------------------------------------------------ *)
(* Accumulators                                                         *)
(* ------------------------------------------------------------------ *)

(** A reduction S carries in one register and T's main loop in lanes:
    at every block boundary, S's register equals the reduction of T's
    value of that register (which T's main loop never writes; its
    epilogue combines the lanes into it) and all of T's lanes. *)
type acc = {
  a_reg : Ir.reg;
  a_update : Ir.reg;  (** S's update of [a_reg] *)
  a_lanes : Ir.reg list;  (** T's accumulators, each [a_width] lanes *)
  a_width : int;
  a_kind : Analysis.Reduction.kind;
  a_float : bool;
  a_sty : Ir.scalar_ty;
}

(* S's reductions that T's main loop carries in accumulators of its own,
   each paired with T's accumulators of its kind and type in register
   order (the transform makes IF of them per reduction, in order) *)
let accumulators s t (ls : Ir.loop) (lt : Ir.loop) ~(fs : facts) ~(ft : facts) :
    acc list =
  let open Analysis.Reduction in
  (* a reduction is a register its body reads before writing it *)
  let reductions side (l : Ir.loop) (f : facts) =
    if f.live <> [] then reductions side l
    else begin
      Hashtbl.replace side.acs l.Ir.l_id [];
      []
    end
  in
  let rs = reductions s ls fs and rt = reductions t lt ft in
  let own l other =
    List.filter (fun r -> not (List.exists (fun o -> o.red_reg = r.red_reg) other)) l
    |> List.sort (fun a b -> Int.compare a.red_reg b.red_reg)
  in
  let rs = own rs rt and rt = own rt rs in
  let sig_of fn r = (r.red_kind, r.red_float, Ir.elem_ty (Ir.reg_ty fn r.red_reg)) in
  List.map
    (fun r ->
      let key = sig_of s.fn r in
      let peers = List.filter (fun x -> sig_of s.fn x = key) rs in
      let lanes = List.filter (fun x -> sig_of t.fn x = key) rt in
      let per = List.length lanes / List.length peers in
      if per = 0 || per * List.length peers <> List.length lanes then
        unknown "accumulators do not pair";
      let rec index k = function
        | x :: rest -> if x == r then k else index (k + 1) rest
        | [] -> k
      in
      let first = index 0 peers * per in
      let lanes =
        List.filteri (fun k _ -> k >= first && k < first + per) lanes
        |> List.map (fun x -> x.red_reg)
      in
      let widths = List.map (fun x -> Ir.width (Ir.reg_ty t.fn x)) lanes in
      let _, float, sty = key in
      { a_reg = r.red_reg; a_update = r.red_update; a_lanes = lanes;
        a_width = List.hd widths; a_kind = r.red_kind; a_float = float; a_sty = sty })
    rs

(* the value a reduction over [xs] leaves, in the normal form S's left
   fold and T's lanes and combine both reach *)
let combine c (a : acc) (xs : term list) : term =
  let open Analysis.Reduction in
  let w = wrap c a.a_sty in
  match (a.a_kind, a.a_float, xs) with
  | RedAdd, true, _ -> fac_all c Ir.FAdd a.a_sty xs
  | RedMul, true, _ -> fac_all c Ir.FMul a.a_sty xs
  | (RedAnd | RedOr | RedXor), false, _ ->
      w (bit c (match a.a_kind with RedAnd -> Ir.And | RedOr -> Ir.Or | _ -> Ir.Xor) xs)
  | RedAdd, false, x :: rest -> (
      (* one affine sum of the unwrapped operands, which the chain of
         wrapped adds reaches too: the ring commutes with the wrap *)
      let sum =
        List.fold_left
          (fun acc y -> Scev.add_sv acc (Scev.Affine (aff_of (strip c a.a_sty y))))
          (Scev.const_aff 0) xs
      in
      try w (mk_lin c (affine sum))
      with Too_big -> List.fold_left (fun acc y -> w (add c acc y)) (w x) rest)
  | RedMul, false, x :: rest -> List.fold_left (fun acc y -> w (mul c acc y)) (w x) rest
  | _ -> unknown "reduction kind"

(* the scalar [a] reduces into, as S reads it *)
let acc_scalar c (a : acc) (v : v) = if a.a_float then as_float c v else as_int c v

let acc_value (a : acc) (x : term) : v = if a.a_float then F x else I x

(* T's lanes for [a], each register holding [a_width] lanes of its type *)
let lanes_of (a : acc) (regs : v array) : term list =
  List.concat_map
    (fun r ->
      match (raw regs.(r), a.a_float) with
      | (VF l, true | VI l, false) when Array.length l = a.a_width -> Array.to_list l
      | (F x, true | I x, false) when a.a_width = 1 -> [ x ]
      | _ -> unknown "accumulator lanes change shape")
    a.a_lanes

(* does S's value of [a] equal the reduction of T's, with every integer
   lane in its type's range? *)
let acc_holds c (a : acc) (s_regs : v array) (t_regs : v array) : bool =
  let lanes = lanes_of a t_regs in
  (a.a_float || List.for_all (fits a.a_sty) lanes)
  && combine c a [ acc_scalar c a s_regs.(a.a_reg) ]
     == combine c a (acc_scalar c a t_regs.(a.a_reg) :: lanes)

(* a fresh value for a lane register of [a] holding [v]: an integer lane
   ranges over its type, as the invariant keeps it; a float lane is
   marked as a certified sum, which T's combine continues *)
let fresh_lanes c (a : acc) (v : v) : v =
  let lo, hi = ty_range a.a_sty in
  match raw v with
  | VI l -> VI (Array.map (fun _ -> sym c ~lo ~hi) l)
  | I _ -> I (sym c ~lo ~hi)
  | VF l -> VF (Array.map (fun _ -> combine c a [ sym c ]) l)
  | F _ -> F (combine c a [ sym c ])
  | St _ -> assert false

(* ------------------------------------------------------------------ *)
(* Induction                                                            *)
(* ------------------------------------------------------------------ *)

(* Run both sides over their node lists, meeting at every loop that
   holds a loop and, at the top level, at every loop stepped by blocks:
   T's loop of its id, and whatever T loops follow it until S's loop is
   done. *)
let rec run_level e s t ~top sn tn =
  let stop (l : Ir.loop) = top && List.mem l.Ir.l_id e.blocks in
  match (exec_until e s ~top ~stop sn, exec_until e t ~top ~stop tn) with
  | [], [] -> ()
  | Ir.Loop ls :: sr, (Ir.Loop lt :: tr as at_t) ->
      if has_loop ls.Ir.l_body then begin
        induct e s t ls lt;
        run_level e s t ~top sr tr
      end
      else run_level e s t ~top sr (segments e s t ls at_t)
  | _ -> unknown "loop nests do not align"

(* A loop holding a loop, on both sides at once. *)
and induct e s t (ls : Ir.loop) (lt : Ir.loop) =
  let c = e.ctx in
  let var = ls.Ir.l_var in
  if lt.Ir.l_var <> var || ls.Ir.l_cmp <> lt.Ir.l_cmp || ls.Ir.l_step <> lt.Ir.l_step
  then unknown "loop headers differ";
  let sty = var_ty s.fn var in
  if var_ty t.fn var <> sty then unknown "loop headers differ";
  let init, bound = header e s ls in
  let init_t, bound_t = header e t lt in
  if init <> init_t || bound <> bound_t then unknown "loop headers differ";
  let n, exit_v = trip_or_unknown sty ls.Ir.l_cmp init bound ls.Ir.l_step in
  let set_var side x = set side var (I (ci c x)) in
  (* each loop's step runs once per proof, so its facts are computed
     once per proof *)
  let fs = scan (Array.length s.regs) ls.Ir.l_body
  and ft = scan (Array.length t.regs) lt.Ir.l_body in
  if is_set fs.wr var || is_set ft.wr var then
    unknown "loop variable written in its body";
  if n = 1 then begin
    set_var s init;
    set_var t init;
    s.steps <- s.steps + 1;
    t.steps <- t.steps + 1;
    run_level e s t ~top:false ls.Ir.l_body lt.Ir.l_body
  end
  else if n > 1 then begin
    let last = Int64.to_int init + ((n - 1) * ls.Ir.l_step) in
    step e s t ~var ~lo:(min (Int64.to_int init) last) ~hi:(max (Int64.to_int init) last)
      ~n ~fs ~ft ~accs:[] (fun _ ->
        (* each iteration ticks once, and runs its body *)
        s.steps <- s.steps + 1;
        t.steps <- t.steps + 1;
        run_level e s t ~top:false ls.Ir.l_body lt.Ir.l_body)
  end;
  set_var s exit_v;
  set_var t exit_v

(* A top-level innermost loop of S against T's loops from [tn] on, until
   S's loop is done: each T loop whose variable, comparison and init meet
   S's, stepping by K times S's step, is a segment of S's iterations (T's
   main loop, K = VF * IF, then its remainder, K = 1).  Any other T loop
   runs on its own.  Returns T's nodes after the last segment. *)
and segments e s t (ls : Ir.loop) (tn : Ir.node list) : Ir.node list =
  let c = e.ctx in
  let _, bound = header e s ls in
  let var = ls.Ir.l_var in
  let rec go tn =
    let at = const_int c (read s var) "loop variable" in
    if Ir_interp.cmp_eval_i ls.Ir.l_cmp at bound = 0L then tn
    else
      match exec_until e t ~top:true ~stop:(fun _ -> true) tn with
      | Ir.Loop lt :: tr when not (has_loop lt.Ir.l_body) ->
          let k = lt.Ir.l_step / ls.Ir.l_step in
          let init_t, bound_t = header e t lt in
          if lt.Ir.l_var = var && lt.Ir.l_cmp = ls.Ir.l_cmp && k >= 1
             && lt.Ir.l_step = k * ls.Ir.l_step && init_t = at
             && var_ty t.fn var = var_ty s.fn var
          then segment e s t ls lt ~k ~at ~bound ~bound_t
          else iterate e t lt bound_t;
          go tr
      | _ -> unknown "loops do not align"
  in
  go tn

(* One segment: T's loop [lt], from S's variable's value [at] on, against
   K of S's iterations per iteration of its own; by induction over T's
   iterations where it runs at least twice, concretely otherwise. *)
and segment e s t (ls : Ir.loop) (lt : Ir.loop) ~k ~at ~bound ~bound_t =
  let c = e.ctx in
  let var = ls.Ir.l_var and st = ls.Ir.l_step in
  let sty = var_ty s.fn var in
  let n, _ = trip_or_unknown sty ls.Ir.l_cmp at bound st in
  let m, exit_v = trip_or_unknown sty lt.Ir.l_cmp at bound_t lt.Ir.l_step in
  if m * k > n then unknown "main loop runs past the loop";
  if m < 2 then begin
    iterate ~limit:(m * k) e s ls bound;
    iterate e t lt bound_t
  end
  else begin
    let fs = scan (Array.length s.regs) ls.Ir.l_body
    and ft = scan (Array.length t.regs) lt.Ir.l_body in
    if is_set fs.wr var || is_set ft.wr var then
      unknown "loop variable written in its body";
    let accs = accumulators s t ls lt ~fs ~ft in
    let acs_s = ac_defs s ls and acs_t = ac_defs t lt in
    let first = Int64.to_int at in
    let last = first + ((m - 1) * lt.Ir.l_step) in
    step e s t ~var ~lo:(min first last) ~hi:(max first last) ~n:m ~fs ~ft ~accs
      (fun i ->
        (* S's K updates of an accumulator make one sum *)
        let sums =
          List.map
            (fun a ->
              { ad_update = a.a_update; ad_acc = a.a_reg; ad_float = a.a_float;
                ad_terms = [] })
            accs
        in
        for u = 0 to k - 1 do
          s.regs.(var) <- I (shift c i (u * st));
          iteration ~sums e s ls ~acs:acs_s
        done;
        List.iter2
          (fun a ad ->
            let start = acc_scalar c a (read s a.a_reg) in
            set s a.a_reg (acc_value a (combine c a (start :: List.rev ad.ad_terms))))
          accs sums;
        iteration e t lt ~acs:acs_t);
    set s var (I (ci c exit_v));
    set t var (I (ci c exit_v))
  end

(* One induction step on both sides at once, from a coupled state: [run]
   runs the step with the loop variable [var] a symbol ranging over
   [lo, hi], every register a body writes and may read before writing it
   a fresh start value (shared where both read it), every array either
   body writes a shared fresh version, and each accumulator of [accs]
   what its lane invariant says.  The state after [n] steps then
   replaces the written state. *)
and step e s t ~var ~lo ~hi ~n ~(fs : facts) ~(ft : facts) ~(accs : acc list)
    (run : term -> unit) =
  let c = e.ctx in
  if fs.oob || ft.oob then unknown "register out of range";
  let warr = List.sort_uniq compare (stored_arrays e fs @ stored_arrays e ft) in
  let outer = e.deps in
  e.deps <- [];
  let es = copy s and et = copy t in
  List.iter
    (fun a -> if not (acc_holds c a es.regs et.regs) then unknown "accumulators differ")
    accs;
  let id0 = c.next in
  let i = sym c ~lo ~hi in
  (* start values, only for the registers a body may read before it
     writes them: one shared symbol where both sides read the register
     from entries of one shape.  Every other register enters the step
     holding what it held, and the step never reads that value *)
  let owner = Hashtbl.create 8 in
  let starts =
    List.map
      (fun r ->
        let in_s = is_set fs.rd r && is_set fs.wr r
        and in_t = is_set ft.rd r && is_set ft.wr r in
        let fresh side =
          let v = fresh_like c side.regs.(r) in
          List.iter (fun t -> Hashtbl.replace owner t.id r) (terms_of v);
          v
        in
        let install side v =
          let st = { s_v = v; s_uses = 0 } in
          side.regs.(r) <- St st;
          Some st
        in
        let v_s = if in_s then Some (fresh s) else None in
        let v_t =
          match v_s with
          | Some v when in_t && same_shape v t.regs.(r) -> Some v
          | _ -> if in_t then Some (fresh t) else None
        in
        let st_s = Option.bind v_s (install s)
        and st_t = Option.bind v_t (install t) in
        (r, st_s, st_t))
      (List.sort_uniq Int.compare (fs.live @ ft.live))
  in
  (* an integer accumulator's lanes start within their type's range, and
     S's accumulator starts as the reduction of T's lanes *)
  let restart side r v =
    let st = { s_v = v; s_uses = 0 } in
    side.regs.(r) <- St st;
    Some st
  in
  let starts =
    List.map
      (fun ((r, st_s, st_t) as start) ->
        match (List.find_opt (fun a -> List.mem r a.a_lanes) accs, st_t) with
        | Some a, Some st when not a.a_float ->
            let v = fresh_lanes c a st.s_v in
            List.iter (fun x -> Hashtbl.replace owner x.id r) (terms_of v);
            (r, st_s, restart t r v)
        | _ -> start)
      starts
    |> List.map (fun ((r, st_s, st_t) as start) ->
           match List.find_opt (fun a -> a.a_reg = r) accs with
           | Some a when st_s <> None ->
               let sum = combine c a (acc_scalar c a t.regs.(r) :: lanes_of a t.regs) in
               (r, restart s r (acc_value a sum), st_t)
           | Some _ -> unknown "accumulator not carried"
           | None -> start)
  in
  List.iter
    (fun a ->
      let fresh = { ver = sym c; groups = IntMap.empty } in
      s.arrs.(a) <- fresh;
      t.arrs.(a) <- fresh)
    warr;
  set s var (I i);
  set t var (I i);
  let from_s = s.wlog.from and from_t = t.wlog.from in
  let step_s = s.wlog.len and step_t = t.wlog.len in
  s.wlog.from <- step_s;
  t.wlog.from <- step_t;
  let steps_s = s.steps and steps_t = t.steps in
  run i;
  let iter_s = s.steps - steps_s and iter_t = t.steps - steps_t in
  s.wlog.from <- from_s;
  t.wlog.from <- from_t;
  let deps = e.deps in
  let accs_ok = List.for_all (fun a -> acc_holds c a s.regs t.regs) accs in
  (* every register with a start value or written by the step, in
     ascending order, with its start values *)
  let nregs = Array.length s.regs in
  let mark = Bytes.make nregs '\000' in
  List.iter (fun (r, _, _) -> Bytes.set mark r '\001') starts;
  let rec mark_log n = function
    | r :: rest when n > 0 ->
        Bytes.set mark r '\001';
        mark_log (n - 1) rest
    | _ -> ()
  in
  mark_log (s.wlog.len - step_s) s.wlog.log;
  mark_log (t.wlog.len - step_t) t.wlog.log;
  let iter_regs f =
    let rest = ref starts in
    for r = 0 to nregs - 1 do
      if Bytes.get mark r <> '\000' then
        match !rest with
        | (r', st_s, st_t) :: tl when r' = r ->
            rest := tl;
            f r st_s st_t
        | _ -> f r None None
    done
  in
  let logged side from r = side.wlog.last.(r) >= from in
  (* a start value that a register this step wrote still holds when
     the step ends passes its shape on, to the next iteration or past
     the loop *)
  let held side own from r =
    match (side.regs.(r), own) with
    | St x, Some o when x != o -> x.s_uses <- x.s_uses lor use_shape
    | St x, None when logged side from r -> x.s_uses <- x.s_uses lor use_shape
    | _ -> ()
  in
  iter_regs (fun r st_s st_t ->
      held s st_s step_s r;
      held t st_t step_t r);
  (* the registers of the start values a term mentions, ascending;
     memoized per term, so the scans below visit each term the step
     built once *)
  let memo = Hashtbl.create 16 in
  let rec union a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: b' ->
        if x = y then x :: union a' b'
        else if x < y then x :: union a' b
        else y :: union a b'
  in
  let rec owners_of (t : term) : int list =
    if t.top < id0 || starts = [] then []
    else
      match Hashtbl.find_opt memo t.id with
      | Some os -> os
      | None ->
          let os =
            match t.node with
            | Sym -> (
                match Hashtbl.find_opt owner t.id with Some r -> [ r ] | None -> [])
            | Lin a ->
                IntMap.fold (fun id _ os -> union (owners_of c.by_id.(id)) os)
                  a.Scev.coeffs []
            | Mon l | Bit (_, l) | FAc (_, _, l) -> owners l
            | Wrap (_, x) | F2I x | I2F x | R32 x -> owners_of x
            | IOp (_, a, b) | ICmp (_, a, b) | FCmp (_, a, b) | FOp (_, _, a, b)
            | Load (_, a, b, _) ->
                union (owners_of a) (owners_of b)
            | SelI (x, a, b) | SelF (x, a, b) ->
                union (owners_of x) (union (owners_of a) (owners_of b))
            | Ci _ | Cf _ -> []
          in
          Hashtbl.replace memo t.id os;
          os
  and owners (ts : term list) : int list =
    List.fold_left (fun os t -> union (owners_of t) os) [] ts
  in
  let arr_terms (a : arr) =
    a.ver
    :: IntMap.fold
         (fun _ g acc ->
           g.g_base :: IntMap.fold (fun _ x acc -> x :: acc) g.g_cells acc)
         a.groups []
  in
  (* the registers that could be coupled: the largest set whose entry
     and end values agree on both sides and whose end values mention
     no start value outside the set *)
  let coupled = Bytes.make nregs '\000' in
  let is_coupled r = Bytes.get coupled r <> '\000' in
  let cands = ref [] in
  iter_regs (fun r _ _ ->
      if equal_v es.regs.(r) et.regs.(r) && equal_v s.regs.(r) t.regs.(r)
      then begin
        Bytes.set coupled r '\001';
        cands :=
          (r, if top_of s.regs.(r) < id0 then [] else owners (terms_of s.regs.(r)))
          :: !cands
      end);
  let cands = List.rev !cands in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r, os) ->
        if is_coupled r && List.exists (fun o -> not (is_coupled o)) os then begin
          Bytes.set coupled r '\000';
          changed := true
        end)
      cands
  done;
  let reliable ts =
    List.for_all (fun t -> t.top < id0) ts || List.for_all is_coupled (owners ts)
  in
  (* ... of which the coupled set keeps only what needs coupling: the
     start values that reach a compared term (a written array, what a
     nested proof compared, an accumulator's end value), the registers
     whose end value depends on a start value, and what their end values
     mention.  A register whose end value does not depend on the step
     needs no coupling, so its entry value becomes no dependency of an
     enclosing step *)
  let needed = Hashtbl.create 8 in
  let rec need r =
    if not (Hashtbl.mem needed r) then begin
      Hashtbl.replace needed r ();
      if is_coupled r then
        List.iter need (owners (terms_of s.regs.(r) @ terms_of t.regs.(r)))
    end
  in
  let arr_roots =
    List.concat_map (fun a -> arr_terms s.arrs.(a) @ arr_terms t.arrs.(a)) warr
  in
  List.iter need (owners (arr_roots @ deps));
  (* an accumulator's own start values are what its invariant relates *)
  List.iter
    (fun a ->
      List.iter
        (fun r -> if r <> a.a_reg && not (List.mem r a.a_lanes) then need r)
        (owners (terms_of s.regs.(a.a_reg)
                 @ List.concat_map (fun r -> terms_of t.regs.(r)) a.a_lanes)))
    accs;
  List.iter (fun (r, os) -> if os <> [] && is_coupled r then need r) cands;
  let carried_ok = Hashtbl.fold (fun r () ok -> ok && is_coupled r) needed true in
  List.iter
    (fun (r, _) -> if not (Hashtbl.mem needed r) then Bytes.set coupled r '\000')
    cands;
  (* a start value the step used must meet, at every iteration's
     start, a shape its uses treat alike; a coupled register keeps its
     shape *)
  let shape_ok (r, st_s, st_t) =
    let ok side (es : side) = function
      | Some st when st.s_uses <> 0 ->
          ignore (use st.s_uses es.regs.(r));
          if is_coupled r then same_shape st.s_v side.regs.(r)
          else uses_fit st.s_uses st.s_v side.regs.(r)
      | _ -> true
    in
    ok s es st_s && ok t et st_t
  in
  (* what this step compared, for the enclosing step's coupling; a step
     inside no other step has none *)
  let enclosed = from_s >= 0 || from_t >= 0 in
  let up = ref [] in
  let dep v = if enclosed then up := terms_of v @ !up in
  let arrays_ok =
    List.for_all
      (fun a ->
        arr_equal es.arrs.(a) et.arrs.(a)
        && arr_equal s.arrs.(a) t.arrs.(a)
        &&
        (if enclosed then
           up := arr_terms es.arrs.(a) @ arr_terms et.arrs.(a)
                 @ arr_terms s.arrs.(a) @ !up;
         true))
      warr
  in
  List.iter
    (fun (r, _) ->
      if is_coupled r then begin
        dep es.regs.(r);
        dep et.regs.(r);
        dep s.regs.(r)
      end)
    cands;
  if not (List.for_all shape_ok starts) then unknown "register shapes change";
  if not arrays_ok then unknown "written arrays differ";
  if not accs_ok then unknown "accumulators differ";
  if not carried_ok then unknown "carried registers differ";
  (* the exit state: the entry state with the written state
     replaced; a value that does not depend on the step stays *)
  let end_s = s.regs and end_t = t.regs in
  restore s es;
  restore t et;
  (* a dead register's end value is never read, so where it depends
     on the step it gets a constant instead of a fresh symbol *)
  let gone = I (ci c 0L) in
  let keep dead v =
    if top_of v < id0 then raw v else if dead then gone else fresh_like c v
  in
  let share dead_s dead_t r v =
    set s r (if dead_s then gone else Lazy.force v);
    set t r (if dead_t then gone else Lazy.force v)
  in
  let wrote st logged v =
    match (st, v) with
    | Some st, St st' -> st != st'
    | Some _, _ -> true
    | None, _ -> logged
  in
  iter_regs (fun r st_s st_t ->
      let end_s = end_s.(r) and end_t = end_t.(r) in
      let wrote_s = wrote st_s (logged s step_s r) end_s
      and wrote_t = wrote st_t (logged t step_t r) end_t in
      let dead_s = dead s fs r and dead_t = dead t ft r in
      if is_coupled r then share dead_s dead_t r (lazy (fresh_like c end_s))
      else if wrote_s && wrote_t && equal_v end_s end_t
              && (top_of end_s < id0 || reliable (terms_of end_s))
      then begin
        dep end_s;
        if top_of end_s < id0 then share false false r (lazy (raw end_s))
        else share dead_s dead_t r (lazy (fresh_like c end_s))
      end
      else begin
        if wrote_s then set s r (keep dead_s end_s);
        if wrote_t then set t r (keep dead_t end_t)
      end);
  (* an accumulator leaves as the reduction of T's fresh lanes; where T
     never reads a lane again, S's value stays fresh *)
  List.iter
    (fun a ->
      if not (dead s fs a.a_reg || List.exists (dead t ft) a.a_lanes) then begin
        List.iter (fun r -> set t r (fresh_lanes c a t.regs.(r))) a.a_lanes;
        let q = acc_scalar c a t.regs.(a.a_reg) in
        set s a.a_reg (acc_value a (combine c a (q :: lanes_of a t.regs)))
      end)
    accs;
  List.iter
    (fun a ->
      let fresh = { ver = sym c; groups = IntMap.empty } in
      s.arrs.(a) <- fresh;
      t.arrs.(a) <- fresh)
    warr;
  s.steps <- es.steps + (n * iter_s);
  t.steps <- et.steps + (n * iter_t);
  e.deps <- !up @ outer

(* ------------------------------------------------------------------ *)
(* What a proof attempts                                                *)
(* ------------------------------------------------------------------ *)

(* The constant integer registers of top-level straight-line code, as a
   proof will find them: moves, integer casts and integer arithmetic
   over constants.  Anything else a register is given forgets it. *)
let fold_value env (v : Ir.value) : int64 option =
  match v with
  | Ir.IConst x -> Some x
  | Ir.Reg r -> IntMap.find_opt r env
  | Ir.FConst _ -> None

let fold_instr env (i : Ir.instr) =
  match i with
  | Ir.Def (r, rv) -> (
      let x =
        match rv with
        | Ir.Mov (Ir.Scalar sty, v)
        | Ir.Cast ((Ir.ZExt | Ir.SExt | Ir.Trunc), _, Ir.Scalar sty, v)
          when not (Ir.is_float_scalar sty) ->
            Option.map (Ir_interp.wrap_int sty) (fold_value env v)
        | Ir.IBin (op, Ir.Scalar sty, a, b) -> (
            match (fold_value env a, fold_value env b) with
            | Some x, Some y -> Some (Ir_interp.wrap_int sty (Ir_interp.ibin_eval op x y))
            | _ -> None)
        | _ -> None
      in
      match x with Some x -> IntMap.add r x env | None -> IntMap.remove r env)
  | Ir.CallI (Some r, _, _) -> IntMap.remove r env
  | Ir.CallI (None, _, _) | Ir.Store _ -> env

let fold_code env ((is, v) : Ir.code) =
  let env = List.fold_left fold_instr env is in
  (env, fold_value env v)

(* control flow, calls and masks, anywhere in [nodes], answer "unknown"
   wherever a proof would meet them *)
let rec plain (nodes : Ir.node list) =
  let instr = function
    | Ir.CallI _ -> unknown "declined: call"
    | Ir.Def (_, Ir.Load (_, m)) | Ir.Store (_, m, _) when m.Ir.mask <> None ->
        unknown "declined: masked access"
    | _ -> ()
  in
  let code ((is, _) : Ir.code) = List.iter instr is in
  List.iter
    (function
      | Ir.Block is -> List.iter instr is
      | Ir.Loop l ->
          code l.Ir.l_init;
          code l.Ir.l_bound;
          plain l.Ir.l_body
      | Ir.Return r -> Option.iter code r
      | Ir.If _ | Ir.WhileLoop _ | Ir.BreakN | Ir.ContinueN ->
          unknown "declined: control flow")
    nodes

(* [fn]'s top-level loops in order, each with its init and bound where
   they fold to constants *)
let heads (fn : Ir.func) : (Ir.loop * (int64 * int64) option) list =
  let rec go env acc = function
    | [] | Ir.Return _ :: _ -> List.rev acc
    | Ir.Block is :: rest -> go (List.fold_left fold_instr env is) acc rest
    | Ir.Loop l :: rest ->
        let var = l.Ir.l_var in
        let env, init = fold_code env l.Ir.l_init in
        let env =
          match init with Some x -> IntMap.add var x env | None -> IntMap.remove var env
        in
        let env, bound = fold_code env l.Ir.l_bound in
        let consts = match (init, bound) with Some i, Some b -> Some (i, b) | _ -> None in
        (* what the body writes is unknown after the loop, except an
           innermost loop's exit value *)
        let env =
          Ir.fold_instrs
            (fun env -> function
              | Ir.Def (r, _) | Ir.CallI (Some r, _, _) -> IntMap.remove r env
              | Ir.Store _ | Ir.CallI (None, _, _) -> env)
            env l.Ir.l_body
        in
        let env = ref env in
        Ir.iter_loops (fun il -> env := IntMap.remove il.Ir.l_var !env) l.Ir.l_body;
        let exit =
          match consts with
          | Some (i, b) when not (has_loop l.Ir.l_body) -> (
              match trip (var_ty fn var) l.Ir.l_cmp i b l.Ir.l_step with
              | Ok (_, x) -> Some x
              | Error _ -> None)
          | _ -> None
        in
        let env =
          match exit with Some x -> IntMap.add var x !env | None -> IntMap.remove var !env
        in
        go env ((l, consts) :: acc) rest
    | _ :: rest -> go env acc rest
  in
  go IntMap.empty [] fn.Ir.fn_body

(* Does stepping [ls] by blocks against [ft]'s loop of its id, and the
   rest of S's iterations against T's remainder, cost fewer iterations
   than the loop has?  A block runs K iterations of S and one of T; a
   segment that T runs once or never runs concretely.  [Error] says why
   not. *)
let pays (fs : Ir.func) (ft : Ir.func) ((ls : Ir.loop), s_consts) t_heads :
    (unit, string) result =
  match
    (s_consts, List.find_opt (fun ((lt : Ir.loop), _) -> lt.Ir.l_id = ls.Ir.l_id) t_heads)
  with
  | None, _ | _, Some (_, None) -> Error "loop bounds not constant"
  | _, None -> Error "no transformed loop"
  | Some (init, bound), Some (lt, Some (init_t, bound_t)) -> (
      let st = ls.Ir.l_step in
      let k = lt.Ir.l_step / st in
      if lt.Ir.l_var <> ls.Ir.l_var || lt.Ir.l_cmp <> ls.Ir.l_cmp || k < 1
         || lt.Ir.l_step <> k * st || init <> init_t || has_loop lt.Ir.l_body
      then Error "loop headers differ"
      else
        let sty = var_ty fs ls.Ir.l_var in
        match
          ( trip sty ls.Ir.l_cmp init bound st,
            trip (var_ty ft lt.Ir.l_var) lt.Ir.l_cmp init_t bound_t lt.Ir.l_step )
        with
        | Error why, _ | _, Error why -> Error why
        | Ok (n, _), Ok (m, _) ->
            (* the iterations a segment of [m] T iterations, each against
               [k] of S's, runs on both sides *)
            let cost m k = if m >= 2 then k + 1 else m * (k + 1) in
            let r = n - (m * k) in
            if r < 0 then Error "main loop runs past the loop"
            else if cost m k + cost r 1 >= n then Error "a block costs the loop"
            else Ok ())

(** The top-level innermost loops of [fs] that a proof steps by blocks
    against [ft]'s, found by one syntactic pass before any term is built;
    raises [Unknown] where the verdict is better left to the ladder.  In
    a kernel with a loop nest, an innermost loop that does not pay runs
    concretely instead: the nest is what the proof is for. *)
let block_loops (fs : Ir.func) (ft : Ir.func) : int list =
  plain fs.Ir.fn_body;
  plain ft.Ir.fn_body;
  let hs = heads fs and ht = heads ft in
  let nest = List.exists (fun ((l : Ir.loop), _) -> has_loop l.Ir.l_body) hs in
  List.filter_map
    (fun (((ls : Ir.loop), _) as h) ->
      if has_loop ls.Ir.l_body then None
      else
        match pays fs ft h ht with
        | Ok () -> Some ls.Ir.l_id
        | Error _ when nest -> None
        | Error why -> unknown "declined: %s" why)
    hs

(* ------------------------------------------------------------------ *)
(* The proof                                                            *)
(* ------------------------------------------------------------------ *)

(** Prove that [kernel] of [transformed] leaves every array and the
    return value as [kernel] of [scalar] does, on every input; or say
    why not.  Only [Proved] is a verdict: anything else means "ask the
    ladder". *)
let prove ~(scalar : Ir.modul) ~(kernel : string) (transformed : Ir.modul) :
    outcome =
  try
    if scalar.Ir.m_arrays <> transformed.Ir.m_arrays then
      unknown "array layouts differ";
    let find m =
      match List.find_opt (fun f -> f.Ir.fn_name = kernel) m.Ir.m_funcs with
      | Some fn -> fn
      | None -> unknown "kernel not found"
    in
    let fs = find scalar and ft = find transformed in
    if fs.Ir.fn_params <> ft.Ir.fn_params then unknown "parameters differ";
    let blocks = block_loops fs ft in
    let c =
      { tbl = Table.create 512; next = 0;
        by_id = Array.make 512 { id = -1; node = Sym; top = -1; lo = 0; hi = 0; f32 = false };
        work = 0 }
    in
    let arrays = Array.of_list scalar.Ir.m_arrays in
    let e =
      { ctx = c; deps = []; arr_index = Hashtbl.create 8; blocks;
        arr_info =
          Array.map
            (fun a ->
              { ai_float = Ir.is_float_scalar a.Ir.arr_elem;
                ai_size = Ir.array_elems a })
            arrays }
    in
    Array.iteri (fun k a -> Hashtbl.replace e.arr_index a.Ir.arr_name k) arrays;
    let init = Array.map (fun _ -> { ver = sym c; groups = IntMap.empty }) arrays in
    let nregs = max 1 (max fs.Ir.fn_nregs ft.Ir.fn_nregs) in
    let zero = ci c 0L in
    let side fn =
      let s =
        { fn; regs = Array.make nregs (I zero); arrs = Array.copy init;
          steps = 0; ret = None; acs = Hashtbl.create 8;
          reads = lazy (scan nregs fn.Ir.fn_body).count;
          wlog = { log = []; len = 0; from = -1; last = Array.make nregs (-1) } }
      in
      (* [Ir_interp.run_func]'s default arguments *)
      List.iteri
        (fun k (_, r, sty) ->
          if r >= nregs then unknown "register out of range";
          s.regs.(r) <-
            (if Ir.is_float_scalar sty then F (cf c 1.5)
             else I (ci c (Int64.of_int ((k + 2) * 3)))))
        fn.Ir.fn_params;
      s
    in
    let s = side fs and t = side ft in
    run_level e s t ~top:true fs.Ir.fn_body ft.Ir.fn_body;
    let ret side = match side.ret with Some (Some v) -> Some v | _ -> None in
    (match (ret s, ret t) with
    | None, None -> ()
    | Some a, Some b when equal_v a b -> ()
    | _ -> unknown "return values differ");
    Array.iteri
      (fun k _ ->
        if not (arr_equal s.arrs.(k) t.arrs.(k)) then unknown "final memory differs")
      arrays;
    if s.steps > fuel_bound || t.steps > fuel_bound then
      unknown "instruction count near the fuel budget";
    Proved
  with
  | Unknown why -> Unknown_because why
  | Too_big -> Unknown_because "arithmetic too large"
