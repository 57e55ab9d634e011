(** Loop-invariant code motion.

    Hoists pure computations whose operands are loop-invariant out of the
    loop, innermost first, iterating to a fixpoint so chains of invariant
    arithmetic (address computations like [i*N + j] under a [k] loop) all
    move. Loads are also hoisted when their address is invariant and no
    store in the loop touches the same array.

    Safety rules:
    - the hoisted definition's target must be defined exactly once in the
      loop and must not be the induction variable;
    - all operands must be defined outside the loop (or by already-hoisted
      definitions);
    - hoisting runs only on loops with a statically positive trip count,
      so a zero-trip loop cannot observe a speculated definition.

    Without this pass every iteration recomputes full linearized addresses
    and the machine model sees loop bodies as compute-bound — hiding the
    memory effects that make tiling and wide vectors matter. This is the
    moral equivalent of running -licm before the vectorizer in LLVM.

    The pass runs twice on the way to a timed point: in the mid-end
    (LICM/CSE/LICM, once per program), and again after vectorizing, on
    every point-memo miss.  The second run finds nothing on most points,
    but it cannot be skipped: it moves code when the original loop had no
    static trip count (the vector loop's remainder carries a positive trip
    hint, so its invariants now qualify) and when if-conversion leaves
    invariant clones at block level.  Since every point miss pays for it,
    each loop's analysis is one walk over its instructions into dense
    per-register scratch ({!scratch}), and a block with nothing to hoist
    is kept as is.  [Stats] times both runs under [licm+cse]. *)

(** Per-register facts about the loop being optimized, indexed by
    register and sized by the function's register count (grown when
    promotion mints a register).  Between loops every entry is at rest —
    no definitions, no flags, no stored bases — because {!forget} puts
    back exactly the registers {!walk} touched. *)
type scratch = {
  mutable def_count : int array;  (** [Def]s and [CallI]s of the register *)
  mutable flags : Bytes.t;  (** the register's [*_bit]s below *)
  mutable touched : int array;  (** the registers flagged so far *)
  mutable n_touched : int;
  mutable stored : string list;  (** the bases the body stores to *)
}

let touched_bit = 1
let variant_bit = 2  (* defined in the loop and not hoisted, or an induction variable *)
let inner_var_bit = 4  (* induction variable of a loop nested in the body *)

let new_scratch (nregs : int) : scratch =
  { def_count = Array.make nregs 0; flags = Bytes.make nregs '\000';
    touched = Array.make nregs 0; n_touched = 0; stored = [] }

let flag (s : scratch) (r : Ir.reg) : int = Char.code (Bytes.get s.flags r)

let mark (s : scratch) (r : Ir.reg) (bit : int) : unit =
  let old = flag s r in
  if old = 0 then begin
    s.touched.(s.n_touched) <- r;
    s.n_touched <- s.n_touched + 1
  end;
  Bytes.set s.flags r (Char.chr (old lor bit lor touched_bit))

(** Fill the at-rest scratch with the facts of loop [l]'s body, in one
    walk over its instructions (plus one over its nested loops): def
    counts, the variant registers (every defined one, [l]'s induction
    variable and the nested loops'), and the stored bases. *)
let walk (s : scratch) (fn : Ir.func) (l : Ir.loop) : unit =
  if Array.length s.def_count < fn.Ir.fn_nregs then begin
    let n = max fn.Ir.fn_nregs (2 * Array.length s.def_count) in
    s.def_count <- Array.make n 0;
    s.flags <- Bytes.make n '\000';
    s.touched <- Array.make n 0
  end;
  mark s l.Ir.l_var variant_bit;
  Ir.fold_instrs
    (fun () i ->
      match i with
      | Ir.Def (r, _) | Ir.CallI (Some r, _, _) ->
          s.def_count.(r) <- s.def_count.(r) + 1;
          mark s r variant_bit
      | Ir.Store (_, m, _) ->
          if not (List.mem m.Ir.base s.stored) then
            s.stored <- m.Ir.base :: s.stored
      | Ir.CallI (None, _, _) -> ())
    () l.Ir.l_body;
  Ir.iter_loops
    (fun il -> mark s il.Ir.l_var (variant_bit lor inner_var_bit))
    l.Ir.l_body

(** Put the registers {!walk} touched back at rest. *)
let forget (s : scratch) : unit =
  for k = 0 to s.n_touched - 1 do
    let r = s.touched.(k) in
    s.def_count.(r) <- 0;
    Bytes.set s.flags r '\000'
  done;
  s.n_touched <- 0;
  s.stored <- []

(** Is [r] defined in the walked body: by an instruction, or as a nested
    loop's induction variable? *)
let defined (s : scratch) (r : Ir.reg) : bool =
  s.def_count.(r) > 0 || flag s r land inner_var_bit <> 0

let trip_positive (l : Ir.loop) : bool =
  match Analysis.Loopinfo.static_trip_count l with
  | Some t -> t >= 1
  | None -> (
      (* tiled point loops carry a positive hint and provably run *)
      match l.Ir.l_trip_hint with Some t -> t >= 1 | None -> false)

(** Hoist invariants out of one loop (body already LICM'd recursively, a
    statically positive trip count, [s] filled by {!walk}).  Returns
    (hoisted instrs, new body). Only instructions at Block level are moved
    (not under Ifs — conditional work stays conditional). *)
let hoist_loop (s : scratch) (l : Ir.loop) : Ir.instr list * Ir.node list =
  let invariant (v : Ir.value) =
    match v with
    | Ir.Reg r -> flag s r land variant_bit = 0
    | Ir.IConst _ | Ir.FConst _ -> true
  in
  let hoistable (r : Ir.reg) (rv : Ir.rvalue) : bool =
    s.def_count.(r) = 1
    &&
    match rv with
    | Ir.IBin (_, _, a, b) | Ir.FBin (_, _, a, b) | Ir.ICmp (_, _, a, b)
    | Ir.FCmp (_, _, a, b) ->
        invariant a && invariant b
    | Ir.Select (_, c, a, b) -> invariant c && invariant a && invariant b
    | Ir.Cast (_, _, _, v) | Ir.Splat (_, v) | Ir.Extract (_, v, _)
    | Ir.Reduce (_, _, v) | Ir.Mov (_, v) | Ir.Stride (_, v, _) ->
        invariant v
    | Ir.Load (_, m) -> (
        (not (List.mem m.Ir.base s.stored))
        && invariant m.Ir.index
        && match m.Ir.mask with None -> true | Some mv -> invariant mv)
  in
  let hoisted = ref [] in
  let changed = ref true in
  (* the block's instructions minus the hoisted ones, physically [is]
     when nothing is hoisted *)
  let rec keep (is : Ir.instr list) =
    match is with
    | [] -> is
    | (Ir.Def (r, rv) as i) :: rest when hoistable r rv ->
        (* its only definition leaves the body *)
        Bytes.set s.flags r (Char.chr (flag s r land lnot variant_bit));
        s.def_count.(r) <- 0;
        hoisted := i :: !hoisted;
        changed := true;
        keep rest
    | i :: rest ->
        let rest' = keep rest in
        if rest' == rest then is else i :: rest'
  in
  let rec scan_nodes (nodes : Ir.node list) =
    match nodes with
    | [] -> nodes
    | n :: rest ->
        let n' =
          match n with
          | Ir.Block is ->
              let is' = keep is in
              if is' == is then n else Ir.Block is'
          | _ -> n
        in
        let rest' = scan_nodes rest in
        if n' == n && rest' == rest then nodes else n' :: rest'
  in
  let body = ref l.Ir.l_body in
  while !changed do
    changed := false;
    body := scan_nodes !body
  done;
  (List.rev !hoisted, !body)

(* ------------------------------------------------------------------ *)
(* Scalar promotion (register promotion of invariant-address accesses)  *)
(* ------------------------------------------------------------------ *)

(** Substitute register [from_] with [to_] in all values of a node list. *)
let subst_uses ~(from_ : Ir.reg) ~(to_ : Ir.reg) (nodes : Ir.node list) :
    Ir.node list =
  let v = function Ir.Reg r when r = from_ -> Ir.Reg to_ | x -> x in
  let mref m =
    { m with Ir.index = v m.Ir.index; mask = Option.map v m.Ir.mask }
  in
  let rvalue rv =
    match rv with
    | Ir.IBin (op, ty, a, b) -> Ir.IBin (op, ty, v a, v b)
    | Ir.FBin (op, ty, a, b) -> Ir.FBin (op, ty, v a, v b)
    | Ir.ICmp (op, ty, a, b) -> Ir.ICmp (op, ty, v a, v b)
    | Ir.FCmp (op, ty, a, b) -> Ir.FCmp (op, ty, v a, v b)
    | Ir.Select (ty, c, a, b) -> Ir.Select (ty, v c, v a, v b)
    | Ir.Cast (k, f, t, x) -> Ir.Cast (k, f, t, v x)
    | Ir.Load (ty, m) -> Ir.Load (ty, mref m)
    | Ir.Splat (ty, x) -> Ir.Splat (ty, v x)
    | Ir.Extract (st, x, l) -> Ir.Extract (st, v x, l)
    | Ir.Reduce (o, st, x) -> Ir.Reduce (o, st, v x)
    | Ir.Mov (ty, x) -> Ir.Mov (ty, v x)
    | Ir.Stride (ty, x, st) -> Ir.Stride (ty, v x, st)
  in
  let instr i =
    match i with
    | Ir.Def (r, rv) -> Ir.Def (r, rvalue rv)
    | Ir.Store (ty, m, x) -> Ir.Store (ty, mref m, v x)
    | Ir.CallI (r, f, args) -> Ir.CallI (r, f, List.map v args)
  in
  let code (is, x) = (List.map instr is, v x) in
  let rec node n =
    match n with
    | Ir.Block is -> Ir.Block (List.map instr is)
    | Ir.If { cond; then_; else_ } ->
        Ir.If { cond = code cond; then_ = List.map node then_;
                else_ = List.map node else_ }
    | Ir.Loop l ->
        Ir.Loop { l with Ir.l_init = code l.Ir.l_init;
                  l_bound = code l.Ir.l_bound;
                  l_body = List.map node l.Ir.l_body }
    | Ir.WhileLoop { w_cond; w_body } ->
        Ir.WhileLoop { w_cond = code w_cond; w_body = List.map node w_body }
    | Ir.Return (Some c) -> Ir.Return (Some (code c))
    | other -> other
  in
  List.map node nodes

(** Promote loads/stores of a loop-invariant address to a register:
    [C[i][j] += ...] in a [k]-innermost nest becomes a register reduction
    the vectorizer can handle — LLVM's LICM store promotion. Conditions:
    the address value is syntactically invariant, every access to the base
    inside the loop uses that same address, none of them is masked or
    inside an [If], and the loop provably runs (the store-back is
    unconditional; the caller checks the trip count).  [s] holds
    {!walk}'s facts of [l]'s current body. *)
let promote_loop (s : scratch) (fn : Ir.func) (l : Ir.loop) :
    (Ir.instr list * Ir.loop * Ir.instr list) option =
  (* a candidate needs a store to its base *)
  if s.stored = [] then None
  else begin
    let invariant_value = function
      | Ir.IConst _ -> true
      | Ir.Reg r -> (not (defined s r)) && r <> l.Ir.l_var
      | Ir.FConst _ -> false
    in
    (* collect (base -> accesses) at Block level and whether any access to
       the base is predicated / inside an If / non-scalar *)
    let top_accesses = Hashtbl.create 4 in
    let disqualified = Hashtbl.create 4 in
    (* bases stored inside a nested loop: the rewrite below reaches only
       the body's own blocks, so promoting one would leave that store
       writing memory behind the register, and the base would qualify
       again, round after round, without end *)
    let nested_stores = ref [] in
    let rec scan ~under_if ~nested nodes =
      List.iter
        (fun n ->
          match n with
          | Ir.Block is ->
              List.iter
                (fun i ->
                  (match i with
                  | Ir.Store (_, m, _) when nested ->
                      nested_stores := m.Ir.base :: !nested_stores
                  | _ -> ());
                  match i with
                  | Ir.Def (_, Ir.Load (ty, m)) | Ir.Store (ty, m, _) ->
                      if under_if || m.Ir.mask <> None
                         || (match ty with Ir.Vec _ -> true | _ -> false)
                      then Hashtbl.replace disqualified m.Ir.base ()
                      else
                        Hashtbl.replace top_accesses m.Ir.base
                          ((ty, m)
                           :: Option.value
                                (Hashtbl.find_opt top_accesses m.Ir.base)
                                ~default:[])
                  | _ -> ())
                is
          | Ir.If { then_; else_; _ } ->
              scan ~under_if:true ~nested then_;
              scan ~under_if:true ~nested else_
          | Ir.Loop il -> scan ~under_if ~nested:true il.Ir.l_body
          | Ir.WhileLoop { w_body; _ } -> scan ~under_if:true ~nested w_body
          | _ -> ())
        nodes
    in
    scan ~under_if:false ~nested:false l.Ir.l_body;
    (* candidates: all accesses to the base share one invariant address,
       and at least one is a store (otherwise plain load hoisting covers it) *)
    let candidate =
      Hashtbl.fold
        (fun base accs acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if Hashtbl.mem disqualified base then None
              else begin
                let idx0 = (snd (List.hd accs)).Ir.index in
                let same_addr =
                  List.for_all (fun (_, m) -> m.Ir.index = idx0) accs
                in
                let has_store = List.mem base s.stored in
                if same_addr && invariant_value idx0 && has_store
                   && not (List.mem base !nested_stores)
                then
                  Some (base, fst (List.hd accs), idx0)
                else None
              end)
        top_accesses None
    in
    match candidate with
    | None -> None
    | Some (base, ty, idx) ->
        let sty = Ir.elem_ty ty in
        let p = Ir.fresh_reg fn (Ir.Scalar sty) in
        let mref = { Ir.base; index = idx; stride = 1; mask = None } in
        (* phase 1: targets of loads from the promoted address *)
        let load_targets =
          List.rev
            (Ir.fold_instrs
               (fun acc i ->
                 match i with
                 | Ir.Def (r, Ir.Load (_, m)) when m.Ir.base = base -> r :: acc
                 | _ -> acc)
               [] l.Ir.l_body)
        in
        (* phase 2: drop the loads, turn stores into register updates *)
        let rewrite_block is =
          List.filter_map
            (fun i ->
              match i with
              | Ir.Def (_, Ir.Load (_, m)) when m.Ir.base = base -> None
              | Ir.Store (_, m, v) when m.Ir.base = base ->
                  Some (Ir.Def (p, Ir.Mov (Ir.Scalar sty, v)))
              | other -> Some other)
            is
        in
        let body =
          List.map
            (fun n ->
              match n with
              | Ir.Block is -> Ir.Block (rewrite_block is)
              | other -> other)
            l.Ir.l_body
        in
        (* phase 3: every former load result now reads the register *)
        let body =
          List.fold_left
            (fun b r -> subst_uses ~from_:r ~to_:p b)
            body load_targets
        in
        let pre = [ Ir.Def (p, Ir.Load (Ir.Scalar sty, mref)) ] in
        let post = [ Ir.Store (Ir.Scalar sty, mref, Ir.Reg p) ] in
        Some (pre, { l with Ir.l_body = body }, post)
  end

(** Run LICM (hoisting + repeated scalar promotion) over a function,
    innermost loops first. Returns the number of moved instructions. *)
let run_func (fn : Ir.func) : int =
  let s = new_scratch fn.Ir.fn_nregs in
  let moved = ref 0 in
  let rec rewrite nodes =
    List.concat_map
      (fun n ->
        match n with
        | Ir.Loop l when not (trip_positive l) ->
            [ Ir.Loop { l with Ir.l_body = rewrite l.Ir.l_body } ]
        | Ir.Loop l ->
            let l = { l with Ir.l_body = rewrite l.Ir.l_body } in
            walk s fn l;
            let hoisted, body = hoist_loop s l in
            moved := !moved + List.length hoisted;
            let l = { l with Ir.l_body = body } in
            (* promote as many invariant-address bases as qualify *)
            let pre_acc = ref [] and post_acc = ref [] in
            let l = ref l in
            let continue = ref true in
            while !continue do
              match promote_loop s fn !l with
              | Some (pre, l', post) ->
                  moved := !moved + 2;
                  pre_acc := !pre_acc @ pre;
                  post_acc := post @ !post_acc;
                  l := l';
                  (* the promoted body's facts, for the next base *)
                  forget s;
                  walk s fn l'
              | None -> continue := false
            done;
            forget s;
            let nodes = [ Ir.Loop !l ] in
            let nodes =
              if !pre_acc = [] then nodes else Ir.Block !pre_acc :: nodes
            in
            let nodes =
              if !post_acc = [] then nodes else nodes @ [ Ir.Block !post_acc ]
            in
            if hoisted = [] then nodes else Ir.Block hoisted :: nodes
        | Ir.If { cond; then_; else_ } ->
            [ Ir.If { cond; then_ = rewrite then_; else_ = rewrite else_ } ]
        | Ir.WhileLoop { w_cond; w_body } ->
            [ Ir.WhileLoop { w_cond; w_body = rewrite w_body } ]
        | other -> [ other ])
      nodes
  in
  fn.Ir.fn_body <- rewrite fn.Ir.fn_body;
  !moved

let run_modul (m : Ir.modul) : int =
  List.fold_left (fun acc fn -> acc + run_func fn) 0 m.Ir.m_funcs
