(** Reduction recognition.

    Lowering turns [sum += e] into

    {v %t = add ty %sum, %e        (or fadd/mul/...)
       %sum = mov ty %t v}

    A register is a reduction candidate when its only in-loop definition is
    such a [mov] fed by a single associative binop over its own previous
    value, and it has no other in-loop uses. The vectorizer then widens the
    accumulator and adds a horizontal [reduce] epilogue. *)

type kind = RedAdd | RedMul | RedAnd | RedOr | RedXor

type reduction = {
  red_reg : Ir.reg;  (** the accumulator *)
  red_update : Ir.reg;  (** [t] of [t = op acc, x; acc = mov t] *)
  red_kind : kind;
  red_float : bool;
  red_predicated : bool;  (** update sits under an [If] *)
}

(** Identity element of a reduction, used to initialise extra lanes. *)
let identity_value (k : kind) (float : bool) : Ir.value =
  match (k, float) with
  | RedAdd, true -> Ir.FConst 0.0
  | RedAdd, false -> Ir.IConst 0L
  | RedMul, true -> Ir.FConst 1.0
  | RedMul, false -> Ir.IConst 1L
  | RedAnd, _ -> Ir.IConst (-1L)
  | RedOr, _ | RedXor, _ -> Ir.IConst 0L

let value_read f = function Ir.Reg r -> f r | Ir.IConst _ | Ir.FConst _ -> ()

let mask_read f = function Some m -> value_read f m | None -> ()

(** [f] on each register [i] reads, once per operand occurrence. *)
let iter_reads (f : Ir.reg -> unit) (i : Ir.instr) : unit =
  match i with
  | Ir.Def (_, rv) -> (
      match rv with
      | Ir.IBin (_, _, a, b) | Ir.FBin (_, _, a, b) | Ir.ICmp (_, _, a, b)
      | Ir.FCmp (_, _, a, b) ->
          value_read f a;
          value_read f b
      | Ir.Select (_, c, a, b) ->
          value_read f c;
          value_read f a;
          value_read f b
      | Ir.Cast (_, _, _, x) | Ir.Splat (_, x) | Ir.Extract (_, x, _)
      | Ir.Reduce (_, _, x) | Ir.Mov (_, x) | Ir.Stride (_, x, _) ->
          value_read f x
      | Ir.Load (_, m) ->
          value_read f m.Ir.index;
          mask_read f m.Ir.mask)
  | Ir.Store (_, m, x) ->
      value_read f m.Ir.index;
      value_read f x;
      mask_read f m.Ir.mask
  | Ir.CallI (_, _, args) -> List.iter (value_read f) args

let value_uses v r = match v with Ir.Reg x when x = r -> 1 | _ -> 0

let iter_def f = function
  | Ir.Def (r, _) | Ir.CallI (Some r, _, _) -> f r
  | Ir.Store _ | Ir.CallI (None, _, _) -> ()

(** Find reductions in a loop body. Returns the recognised reductions;
    [unrecognized_carried] lists loop-carried scalar registers that are
    *not* reductions (their presence blocks vectorization, as in LLVM).
    Linear in the body: after sizing the register tables, one pass finds
    the carried registers and counts every register's definitions and
    reads. *)
let analyze (l : Ir.loop) : reduction list * Ir.reg list =
  let body = l.Ir.l_body in
  let instrs = Ir.all_instrs body in
  (* what {!Scev.defined_regs} counts: definitions, and the variables of
     nested loops *)
  let nested_vars = ref [] in
  Ir.iter_loops (fun il -> nested_vars := il.Ir.l_var :: !nested_vars) body;
  let nregs = ref (List.fold_left (fun n r -> max n (r + 1)) 0 !nested_vars) in
  let see r = nregs := max !nregs (r + 1) in
  List.iter
    (fun i ->
      iter_def see i;
      iter_reads see i)
    instrs;
  let nregs = !nregs in
  (* per register: defined in the body / defined so far / carried *)
  let defined = Bytes.make nregs '\000' in
  List.iter (iter_def (fun r -> Bytes.set defined r '\001')) instrs;
  List.iter (fun r -> Bytes.set defined r '\001') !nested_vars;
  let seen_def = Bytes.make nregs '\000' and is_carried = Bytes.make nregs '\000' in
  (* every register's [Def]s (the last one's rvalue kept) and reads *)
  let ndefs = Array.make nregs 0 and nuses = Array.make nregs 0 in
  let last_def = Array.make nregs (Ir.Mov (Ir.Scalar Ir.I64, Ir.IConst 0L)) in
  (* Which defined regs are read before (or at) their first definition?
     Those carry values across iterations, listed by first such read,
     ascending within one instruction. The induction variable is
     excluded — the loop header handles it. *)
  let carried = ref [] and reads = ref [] in
  let read r =
    nuses.(r) <- nuses.(r) + 1;
    if Bytes.get defined r = '\001' && Bytes.get seen_def r = '\000'
       && Bytes.get is_carried r = '\000' && r <> l.Ir.l_var
    then reads := r :: !reads
  in
  let carry r =
    Bytes.set is_carried r '\001';
    carried := r :: !carried
  in
  List.iter
    (fun i ->
      (* reads first *)
      reads := [];
      iter_reads read i;
      (match !reads with
      | [] -> ()
      | rs -> List.iter carry (List.sort_uniq Int.compare rs));
      match i with
      | Ir.Def (r, rv) ->
          Bytes.set seen_def r '\001';
          ndefs.(r) <- ndefs.(r) + 1;
          last_def.(r) <- rv
      | Ir.CallI (Some r, _, _) -> Bytes.set seen_def r '\001'
      | Ir.Store _ | Ir.CallI (None, _, _) -> ())
    instrs;
  let carried = List.rev !carried in
  let the_def r = if ndefs.(r) = 1 then Some last_def.(r) else None in
  (* is a register's defining instruction under an If? *)
  let predicated =
    lazy
      (let p = Bytes.make nregs '\000' in
       let rec scan ~pred nodes =
         List.iter
           (function
             | Ir.Block is ->
                 List.iter
                   (function
                     | Ir.Def (r, _) -> Bytes.set p r (if pred then '\001' else '\000')
                     | _ -> ())
                   is
             | Ir.If { then_; else_; _ } ->
                 scan ~pred:true then_;
                 scan ~pred:true else_
             | Ir.Loop il -> scan ~pred il.Ir.l_body
             | Ir.WhileLoop { w_body; _ } -> scan ~pred w_body
             | _ -> ())
           nodes
       in
       scan ~pred:false body;
       p)
  in
  let classify r : reduction option =
    match the_def r with
    | Some (Ir.Mov (_, Ir.Reg t)) -> (
        (* t's definition must be a single binop using r once *)
        match the_def t with
        | Some rv when nuses.(t) = 1 -> (
            let kind_of_ibin = function
              | Ir.Add -> Some RedAdd
              | Ir.Mul -> Some RedMul
              | Ir.And -> Some RedAnd
              | Ir.Or -> Some RedOr
              | Ir.Xor -> Some RedXor
              | _ -> None
            in
            let kind_of_fbin = function
              | Ir.FAdd -> Some RedAdd
              | Ir.FMul -> Some RedMul
              | _ -> None
            in
            let mk kind float a b =
              (* accumulator must appear exactly once, as an operand *)
              if value_uses a r + value_uses b r = 1 && nuses.(r) = 1 then
                Some { red_reg = r; red_update = t; red_kind = kind; red_float = float;
                       red_predicated =
                         Bytes.get (Lazy.force predicated) r = '\001' }
              else None
            in
            match rv with
            | Ir.IBin (op, _, a, b) -> (
                match kind_of_ibin op with
                | Some k -> mk k false a b
                | None -> None)
            | Ir.FBin (op, _, a, b) -> (
                match kind_of_fbin op with
                | Some k -> mk k true a b
                | None -> None)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let reds, blocked =
    List.fold_left
      (fun (reds, blocked) r ->
        match classify r with
        | Some red -> (red :: reds, blocked)
        | None -> (reds, r :: blocked))
      ([], []) carried
  in
  (List.rev reds, List.rev blocked)
