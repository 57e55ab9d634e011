(** Batched kernels over contiguous [Bigarray] float64 buffers, plus the
    per-domain scratch arena that makes the steady-state hot loop
    allocation-free.  Every pass of the network runs on these kernels:
    inference over a batch of snippets, and the PPO update, whose
    minibatch forward leaves its activations in the arena for the row
    backward that follows on the same domain.

    {b Exactness contract.}  Each kernel fixes its floating-point
    operation order, and training checkpoints depend on it bit for bit.
    Forward: one accumulator per output element, k-sequential
    accumulation, bias added after the dot, elementwise nonlinearities,
    softmax as max-fold / exp-map / sum-fold / divide in index order.
    Backward ({!dense_bwd_rows}): rows in order, so every gradient cell
    sums its rows in that order; a zero [dy] entry adds nothing to [gw]
    or [dx]; every [dx] row sums from +0.0; the tanh derivative is
    [dy *. (1.0 -. y *. y)].  Rows are independent, so a row's bits do
    not depend on the batch around it (a one-row call has the bits of the
    same row inside any batch).  The test suite's per-sample reference
    forward, the batched.* suites and the pinned training digests
    (golden.train) enforce this; do not "optimize" a kernel into a
    different summation order.

    Buffers are float64 ([Tensor] is [float array], i.e. double): a
    float32 layout would be smaller but would round every intermediate
    and move every pinned bit.

    {b Arena.}  [slot] returns a named scratch buffer of at least the
    requested length, growing (never shrinking) on demand; steady state
    reuses the same backing store call after call.  Each domain owns one
    arena via [Domain.DLS], so pool workers never share scratch and the
    kernels need no locks. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create (n : int) : buf =
  Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (max 1 n)

type arena = {
  mutable slots : (string * buf) list;
  mutable int_slots : (string * int array) list;
  mutable float_slots : (string * float array) list;
  table : (int, int) Hashtbl.t;
      (** shared int-keyed scratch table (e.g. context dedup); callers
          [Hashtbl.reset] it before use *)
}

let create_arena () : arena =
  { slots = []; int_slots = []; float_slots = []; table = Hashtbl.create 256 }

(** Drop every buffer (the "cold" state: the next forward re-allocates). *)
let reset (a : arena) : unit =
  a.slots <- [];
  a.int_slots <- [];
  a.float_slots <- [];
  Hashtbl.reset a.table

(* grow to ~1.5x the request so a slowly-increasing batch size does not
   reallocate on every call *)
let grown (n : int) : int = n + (n / 2)

(** Named scratch buffer with capacity >= [len]; contents unspecified. *)
let slot (a : arena) (name : string) (len : int) : buf =
  match List.assoc_opt name a.slots with
  | Some b when Bigarray.Array1.dim b >= len -> b
  | _ ->
      let b = create (grown len) in
      a.slots <- (name, b) :: List.remove_assoc name a.slots;
      b

let int_slot (a : arena) (name : string) (len : int) : int array =
  match List.assoc_opt name a.int_slots with
  | Some b when Array.length b >= len -> b
  | _ ->
      let b = Array.make (max 1 (grown len)) 0 in
      a.int_slots <- (name, b) :: List.remove_assoc name a.int_slots;
      b

let float_slot (a : arena) (name : string) (len : int) : float array =
  match List.assoc_opt name a.float_slots with
  | Some b when Array.length b >= len -> b
  | _ ->
      let b = Array.make (max 1 (grown len)) 0.0 in
      a.float_slots <- (name, b) :: List.remove_assoc name a.float_slots;
      b

(* one arena per domain: pool workers get their own scratch, and a serial
   caller reuses the same warm buffers across calls *)
let dls_arena : arena Domain.DLS.key = Domain.DLS.new_key create_arena

let domain_arena () : arena = Domain.DLS.get dls_arena

let reset_domain_arena () : unit = reset (domain_arena ())

(* ------------------------------------------------------------------ *)
(* Kernels                                                              *)
(* ------------------------------------------------------------------ *)

external get : buf -> int -> float = "%caml_ba_unsafe_ref_1"
external set : buf -> int -> float -> unit = "%caml_ba_unsafe_set_1"

(** [y(r) = W x(r) + b] for [rows] row-major rows.  Per output element:
    one accumulator summed in k order (4x unrolled, {e single}
    accumulator, so the operation sequence is that of the plain loop),
    then [acc +. b.(o)]. *)
let dense_rows ~(w : Tensor.mat) ~(b : Tensor.vec) ~(x : buf) ~(y : buf)
    ~(rows : int) : unit =
  let in_dim = w.Tensor.cols and out_dim = w.Tensor.rows in
  if
    Bigarray.Array1.dim x < rows * in_dim
    || Bigarray.Array1.dim y < rows * out_dim
    || Array.length b <> out_dim
  then invalid_arg "Batch.dense_rows: dimension mismatch";
  let wd = w.Tensor.data in
  let tail = in_dim land 3 and main = in_dim land lnot 3 in
  for r = 0 to rows - 1 do
    let xbase = r * in_dim and ybase = r * out_dim in
    for o = 0 to out_dim - 1 do
      let wbase = o * in_dim in
      let acc = ref 0.0 in
      let k = ref 0 in
      while !k < main do
        let k0 = !k in
        let a0 = !acc +. (Array.unsafe_get wd (wbase + k0) *. get x (xbase + k0)) in
        let a1 = a0 +. (Array.unsafe_get wd (wbase + k0 + 1) *. get x (xbase + k0 + 1)) in
        let a2 = a1 +. (Array.unsafe_get wd (wbase + k0 + 2) *. get x (xbase + k0 + 2)) in
        acc := a2 +. (Array.unsafe_get wd (wbase + k0 + 3) *. get x (xbase + k0 + 3));
        k := k0 + 4
      done;
      for k = main to main + tail - 1 do
        acc := !acc +. (Array.unsafe_get wd (wbase + k) *. get x (xbase + k))
      done;
      set y (ybase + o) (!acc +. Array.unsafe_get b o)
    done
  done

(** Elementwise [tanh] over the first [len] entries, in place. *)
let tanh_inplace (x : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    set x i (tanh (get x i))
  done

(** Elementwise relu over the first [len] entries, in place. *)
let relu_inplace (x : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    let v = get x i in
    set x i (if v > 0.0 then v else 0.0)
  done

let fill_zero_row (x : buf) ~(off : int) ~(len : int) : unit =
  for j = 0 to len - 1 do
    set x (off + j) 0.0
  done

(** Row backward of {!dense_rows}, rows in order.  Row r adds
    [dy(r) ⊗ x(r)] into [gw] (an output whose [dy] entry is zero adds
    nothing) and [dy(r)] into [gb], and writes [dx(r) = Wᵀ dy(r)], summed
    from +0.0 in output order over the outputs whose [dy] entry is
    nonzero.  Row r reads input row [xix.(r)] of [x] ([r] without
    [xix]), so rows that share an input need not copy it. *)
let dense_bwd_rows ~(w : Tensor.mat) ~(gw : Tensor.mat) ~(gb : Tensor.vec)
    ~(x : buf) ?(xix : int array option) ~(dy : buf) ~(dx : buf)
    ~(rows : int) () : unit =
  let in_dim = w.Tensor.cols and out_dim = w.Tensor.rows in
  if
    Bigarray.Array1.dim dy < rows * out_dim
    || Bigarray.Array1.dim dx < rows * in_dim
    || gw.Tensor.rows <> out_dim || gw.Tensor.cols <> in_dim
    || Array.length gb <> out_dim
  then invalid_arg "Batch.dense_bwd_rows: dimension mismatch";
  let wd = w.Tensor.data and gwd = gw.Tensor.data in
  for r = 0 to rows - 1 do
    let xbase = (match xix with None -> r | Some ix -> ix.(r)) * in_dim in
    if Bigarray.Array1.dim x < xbase + in_dim then
      invalid_arg "Batch.dense_bwd_rows: input row out of range";
    let ybase = r * out_dim and dxbase = r * in_dim in
    fill_zero_row dx ~off:dxbase ~len:in_dim;
    for o = 0 to out_dim - 1 do
      let d = get dy (ybase + o) in
      Array.unsafe_set gb o (Array.unsafe_get gb o +. d);
      if d <> 0.0 then begin
        let wbase = o * in_dim in
        for k = 0 to in_dim - 1 do
          Array.unsafe_set gwd (wbase + k)
            (Array.unsafe_get gwd (wbase + k) +. (d *. get x (xbase + k)));
          set dx (dxbase + k)
            (get dx (dxbase + k) +. (Array.unsafe_get wd (wbase + k) *. d))
        done
      end
    done
  done

(** [dy *= 1 - y²] over the first [len] entries, in place: the tanh
    derivative, given the tanh outputs [y]. *)
let tanh_bwd_inplace ~(y : buf) ~(dy : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    let v = get y i in
    set dy i (get dy i *. (1.0 -. (v *. v)))
  done

(** The relu derivative in place: [dy] kept where the output [y] is
    positive, 0.0 elsewhere. *)
let relu_bwd_inplace ~(y : buf) ~(dy : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    if not (get y i > 0.0) then set dy i 0.0
  done

(** Dot of buffer row [x[off ..)] with a plain vector, summed from 0.0 in
    index order. *)
let dot_row (x : buf) ~(off : int) (v : Tensor.vec) : float =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. (get x (off + i) *. Array.unsafe_get v i)
  done;
  !acc

(** In-place softmax over [s.(off .. off+n-1)], in [Tensor.softmax]'s
    operation order (max-fold, exp, sum-fold, divide — all in index
    order) so the resulting probabilities are bit-identical. *)
let softmax_inplace ?(off = 0) (s : float array) ~(n : int) : unit =
  let m = ref neg_infinity in
  for i = off to off + n - 1 do
    if s.(i) > !m then m := s.(i)
  done;
  (* NB [Array.fold_left max] over floats: max neg_infinity x = x, and a
     strictly increasing scan keeps the first maximum — [>] matches *)
  for i = off to off + n - 1 do
    s.(i) <- exp (s.(i) -. !m)
  done;
  let sum = ref 0.0 in
  for i = off to off + n - 1 do
    sum := !sum +. s.(i)
  done;
  for i = off to off + n - 1 do
    s.(i) <- s.(i) /. !sum
  done

(** [dst_row += alpha * src_row] over [len] entries. *)
let axpy_row ~(alpha : float) ~(src : buf) ~(src_off : int) ~(dst : buf)
    ~(dst_off : int) ~(len : int) : unit =
  for j = 0 to len - 1 do
    set dst (dst_off + j) (get dst (dst_off + j) +. (alpha *. get src (src_off + j)))
  done

(** Copy a [Tensor.mat] row into a buffer row (embedding-table gather). *)
let blit_mat_row ~(src : Tensor.mat) ~(row : int) ~(dst : buf)
    ~(dst_off : int) : unit =
  let base = row * src.Tensor.cols in
  for j = 0 to src.Tensor.cols - 1 do
    set dst (dst_off + j) (Array.unsafe_get src.Tensor.data (base + j))
  done

(** Add [len] entries of a buffer row into a [Tensor.mat] row, starting
    at column 0 (embedding-table gradient scatter). *)
let add_to_mat_row ~(src : buf) ~(src_off : int) ~(len : int)
    ~(dst : Tensor.mat) ~(row : int) : unit =
  let d = dst.Tensor.data and base = row * dst.Tensor.cols in
  for j = 0 to len - 1 do
    d.(base + j) <- d.(base + j) +. get src (src_off + j)
  done

(** Index of the first strict maximum of a buffer segment. *)
let argmax_seg (b : buf) ~(off : int) ~(len : int) : int =
  let best = ref 0 in
  for i = 0 to len - 1 do
    if get b (off + i) > get b (off + !best) then best := i
  done;
  !best

(** Extract a buffer row into a fresh [Tensor.vec] (the batched-to-scalar
    boundary, e.g. per-sample policy logits handed to the distribution
    code). *)
let row_to_vec (x : buf) ~(off : int) ~(len : int) : Tensor.vec =
  Array.init len (fun j -> get x (off + j))
