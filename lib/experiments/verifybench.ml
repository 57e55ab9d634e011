(** Translation-validation benchmark (and equivalence gate): price the
    bytecode VM against the tree-walking interpreter on the workload
    [--verify] actually runs, and make the speedup unshippable unless the
    bits are unchanged.

    Three measurements land in [BENCH_verify.json]:

    - {b interpreter micro}: every module of the corpus (scalar reference
      and its vectorized transform), executed repeatedly by both engines
      over identical seeded memory images — steps/second tree vs VM, with
      a per-run bit-identity check (result, every memory cell, fuel).
      The VM runs on its native planes, the entry {!Verify.Tv} uses; the
      ≥3x gate lives here.
    - {b verified sweeps}: the full reward-oracle sweep with [--verify]
      on, engine tree vs VM, serial and pooled at [Parpool.jobs ()] —
      verified programs/sec and the end-to-end overhead of verification
      relative to a plain sweep, before (tree) and after (VM).  A pool
      smaller than 4 domains gets a second
      pooled pair at 4, a bit-identity gate only; its time is not
      reported.
    - {b counterexample identity}: a sabotaged verdict rendered by both
      engines must produce byte-identical [Miscompiled] counterexample
      strings, so quarantine reports and V-records cannot drift with the
      engine. *)

let wall () = Unix.gettimeofday ()

let corpus_seed = 77

(* Common.sweep empties every Memo table first — the Tv scalar-run cache
   and the VM's compiled-code cache included *)
let sweep ?best_of ~(engine : Verify.Tv.engine) ~(verify : bool)
    ~(jobs : int) (programs : Dataset.Program.t array) : Common.sweep =
  Verify.Tv.set_engine engine;
  Common.sweep ?best_of
    ~options:{ Neurovec.Pipeline.default_options with verify }
    ~jobs programs

(* ------------------------------------------------------------------ *)
(* Interpreter micro: steps/sec, tree vs VM                             *)
(* ------------------------------------------------------------------ *)

let find_fn (m : Ir.modul) (name : string) : Ir.func =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> failwith ("verifybench: kernel " ^ name ^ " not found")

(* the two modules a --verify verdict interprets: the scalar reference
   and the legality-clamped vectorized transform *)
let modules_of (p : Dataset.Program.t) : (Ir.modul * string) list =
  let bindings = p.Dataset.Program.p_bindings in
  let lower () =
    Ir_lower.lower_program ~bindings
      (Minic.Parser.parse_string p.Dataset.Program.p_source)
  in
  let scalar = lower () in
  let m = lower () in
  ignore (Vectorizer.Licm.run_modul m);
  ignore (Vectorizer.Cse.run_modul m);
  ignore (Vectorizer.Licm.run_modul m);
  let preps = Vectorizer.Planner.prepare_modul m in
  ignore
    (Vectorizer.Planner.run_prepared
       ~plan:(Some { Vectorizer.Transform.vf = 4; if_ = 2 })
       m preps);
  ignore (Vectorizer.Licm.run_modul m);
  [ (scalar, p.Dataset.Program.p_kernel); (m, p.Dataset.Program.p_kernel) ]

let rv_bits_equal (a : Ir_interp.rvalue_v option)
    (b : Ir_interp.rvalue_v option) : bool =
  match (a, b) with
  | Some (Ir_interp.VF x), Some (Ir_interp.VF y) ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

(* the first array whose plane differs from the tree walker's [st],
   compared cell by cell without converting either side: allocating here
   would bill GC work to the timed runs around it *)
let plane_divergence (p : Ir_vm.program) (pl : Ir_vm.planes)
    (st : Ir_interp.state) : string option =
  let same_cells eq a b =
    Array.length a = Array.length b && Array.for_all2 eq a b
  in
  Array.fold_left
    (fun acc (name, plane) ->
      let equal =
        match (plane, Hashtbl.find st.Ir_interp.mem name) with
        | `I a, Ir_interp.MI b ->
            same_cells (fun x y -> Int64.equal (Int64.of_int x) y) a b
        | `F a, Ir_interp.MF b ->
            same_cells
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              a b
        | _ -> false
      in
      match acc with None when not equal -> Some name | _ -> acc)
    None (Ir_vm.bindings p pl)

type micro = {
  mi_steps : int;  (** instructions executed across all runs *)
  mi_seconds : float;
  mi_compiled : int;  (** modules the bytecode compiler accepted *)
  mi_fallback : int;  (** modules it declined (tree-walked on both sides) *)
}

(** Run every module [reps] times per engine over identical seeded
    memory, asserting bit-identity run by run.  Returns (tree, vm). *)
let micro_measure ~(reps : int) (mods : (Ir.modul * string) list) :
    micro * micro =
  let compiled = ref 0 and fallback = ref 0 in
  let pairs =
    List.map
      (fun (m, kernel) ->
        let prog = Ir_vm.compile m ~kernel in
        (match prog with Some _ -> incr compiled | None -> incr fallback);
        (* the VM's image of each seed the reps use, built up front *)
        let images =
          Array.init 8 (fun seed ->
              Ir_vm.image m.Ir.m_arrays (Ir_interp.Hashed seed))
        in
        (m, kernel, prog, images))
      mods
  in
  let tree_steps = ref 0 and tree_secs = ref 0.0 in
  let vm_steps = ref 0 and vm_secs = ref 0.0 in
  List.iter
    (fun (m, kernel, prog, images) ->
      let fn = find_fn m kernel in
      for rep = 1 to reps do
        let seed = rep land 7 in
        (* tree walker *)
        let st = Ir_interp.init_state ~seed m in
        let t0 = wall () in
        let r_tree = Ir_interp.run_func st fn () in
        tree_secs := !tree_secs +. (wall () -. t0);
        tree_steps := !tree_steps + st.Ir_interp.steps;
        (* VM over an identical image *)
        match prog with
        | None -> ()
        | Some prog -> (
            let pl = Ir_vm.copy_for prog images.(seed) in
            let t0 = wall () in
            let out = Ir_vm.run_planes prog pl () in
            vm_secs := !vm_secs +. (wall () -. t0);
            vm_steps := !vm_steps + out.Ir_vm.o_steps;
            (* the gate rides along on every measured run *)
            if out.Ir_vm.o_steps <> st.Ir_interp.steps then
              failwith
                (Printf.sprintf "verifybench: fuel diverged on %s (%d vs %d)"
                   kernel out.Ir_vm.o_steps st.Ir_interp.steps);
            if not (rv_bits_equal out.Ir_vm.o_result r_tree) then
              failwith ("verifybench: result bits diverged on " ^ kernel);
            match plane_divergence prog pl st with
            | None -> ()
            | Some name ->
                failwith
                  (Printf.sprintf "verifybench: memory %s diverged on %s" name
                     kernel))
      done)
    pairs;
  let micro steps secs =
    { mi_steps = steps; mi_seconds = secs; mi_compiled = !compiled;
      mi_fallback = !fallback }
  in
  (micro !tree_steps !tree_secs, micro !vm_steps !vm_secs)

(* ------------------------------------------------------------------ *)
(* BENCH_verify.json                                                    *)
(* ------------------------------------------------------------------ *)

let required_keys =
  [ "benchmark"; "corpus_programs"; "corpus_modules"; "cores"; "jobs_pool";
    "jobs_gate"; "tree_steps_per_sec"; "vm_steps_per_sec"; "interp_speedup";
    "modules_compiled"; "modules_fallback"; "sweep_plain_seconds";
    "sweep_tree_seconds"; "sweep_vm_seconds"; "sweep_vm_pool_seconds";
    "verified_programs_per_sec_tree"; "verified_programs_per_sec_vm";
    "verify_overhead_tree_pct"; "verify_overhead_vm_pct";
    "vm_cache_hit_rate"; "verdicts_proved"; "verdicts_by_ladder";
    "bit_identical"; "counterexamples_identical" ]

let rate (m : micro) = float_of_int m.mi_steps /. Float.max m.mi_seconds 1e-9

let json_of ~(programs : int) ~(modules : int) ~(jobs_pool : int)
    ~(jobs_gate : int) ~(tree : micro) ~(vm : micro) ~(plain : Common.sweep)
    ~(tree_sweep : Common.sweep)
    ~(vm_sweep : Common.sweep) ~(vm_pool : Common.sweep)
    ~(proofs : int * int) : string =
  let per_sec n dt = float_of_int n /. Float.max dt 1e-9 in
  let overhead (v : Common.sweep) =
    100.0 *. (v.seconds -. plain.seconds) /. Float.max plain.seconds 1e-9
  in
  let num = Common.num in
  let code = Neurovec.Stats.cache vm_sweep.stats "vm-code" in
  let cache_rate =
    Neurovec.Stats.hit_rate ~hits:code.Memo.hits ~misses:code.Memo.misses
  in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"verifybench\",";
      Printf.sprintf "  \"corpus_programs\": %d," programs;
      Printf.sprintf "  \"corpus_modules\": %d," modules;
      Printf.sprintf "  \"cores\": %d," (Domain.recommended_domain_count ());
      Printf.sprintf "  \"jobs_pool\": %d," jobs_pool;
      Printf.sprintf "  \"jobs_gate\": %d," jobs_gate;
      Printf.sprintf "  \"tree_steps_per_sec\": %s," (num (rate tree));
      Printf.sprintf "  \"vm_steps_per_sec\": %s," (num (rate vm));
      Printf.sprintf "  \"interp_speedup\": %s,"
        (num (rate vm /. Float.max (rate tree) 1e-9));
      Printf.sprintf "  \"modules_compiled\": %d," vm.mi_compiled;
      Printf.sprintf "  \"modules_fallback\": %d," vm.mi_fallback;
      Printf.sprintf "  \"sweep_plain_seconds\": %s," (num plain.seconds);
      Printf.sprintf "  \"sweep_tree_seconds\": %s," (num tree_sweep.seconds);
      Printf.sprintf "  \"sweep_vm_seconds\": %s," (num vm_sweep.seconds);
      Printf.sprintf "  \"sweep_vm_pool_seconds\": %s," (num vm_pool.seconds);
      Printf.sprintf "  \"verified_programs_per_sec_tree\": %s,"
        (num (per_sec programs tree_sweep.seconds));
      Printf.sprintf "  \"verified_programs_per_sec_vm\": %s,"
        (num (per_sec programs vm_sweep.seconds));
      Printf.sprintf "  \"verify_overhead_tree_pct\": %s,"
        (num (overhead tree_sweep));
      Printf.sprintf "  \"verify_overhead_vm_pct\": %s,"
        (num (overhead vm_sweep));
      Printf.sprintf "  \"vm_cache_hit_rate\": %s," (num cache_rate);
      Printf.sprintf "  \"verdicts_proved\": %d," (fst proofs);
      Printf.sprintf "  \"verdicts_by_ladder\": %d," (snd proofs);
      "  \"bit_identical\": \"yes\",";
      "  \"counterexamples_identical\": \"yes\"";
      "}";
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let print () =
  Common.header
    "Translation validation: tree walker vs bytecode VM, same bits, \
     measured speedup";
  (* the pooled time is reported at the resolved pool size; the identity
     gate runs at least 4 domains, more than a small host has cores,
     because oversubscription is the harsher schedule *)
  let jobs = Neurovec.Parpool.jobs () in
  let jobs_gate = max 4 jobs in
  let programs = Dataset.Loopgen.generate ~seed:corpus_seed (Common.scaled 12) in
  let n = Array.length programs in
  let mods = List.concat_map modules_of (Array.to_list programs) in
  let n_mods = List.length mods in
  Printf.printf
    "corpus: %d programs -> %d modules, pool size %d (identity gate at %d)\n%!"
    n n_mods jobs jobs_gate;

  (* interpreter micro: identical work, per-run bit-identity *)
  let reps = Common.scaled 40 in
  let tree, vm = micro_measure ~reps mods in
  Printf.printf "interpreter micro (%d reps/module, %d modules):\n" reps
    n_mods;
  Printf.printf "  tree walker: %10.0f steps/s (%d steps in %.3f s)\n"
    (rate tree) tree.mi_steps tree.mi_seconds;
  Printf.printf "  bytecode VM: %10.0f steps/s (%d steps in %.3f s)\n"
    (rate vm) vm.mi_steps vm.mi_seconds;
  Printf.printf "  compiled %d/%d modules (%d fallbacks)\n" vm.mi_compiled
    (vm.mi_compiled + vm.mi_fallback)
    vm.mi_fallback;
  let interp_speedup = rate vm /. Float.max (rate tree) 1e-9 in
  Common.bar "vm vs tree steps/s" interp_speedup;

  (* verified sweeps: plain, tree-verified, vm-verified, vm pooled *)
  let plain =
    sweep ~best_of:2 ~engine:Verify.Tv.Vm ~verify:false ~jobs:1 programs
  in
  let tree_sweep =
    sweep ~best_of:2 ~engine:Verify.Tv.Interp ~verify:true ~jobs:1 programs
  in
  let vm_sweep =
    sweep ~best_of:2 ~engine:Verify.Tv.Vm ~verify:true ~jobs:1 programs
  in
  (* the last run's verdicts: the prover's, and the ladder's *)
  let proofs = (Counter.get Verify.Tv.proved, Counter.get Verify.Tv.unproved) in
  let vm_pool =
    sweep ~best_of:2 ~engine:Verify.Tv.Vm ~verify:true ~jobs programs
  in
  (* a pool of 4 or more is the gate's own size: its timed run is the
     gate's VM side *)
  let vm_gate =
    if jobs_gate = jobs then vm_pool
    else sweep ~engine:Verify.Tv.Vm ~verify:true ~jobs:jobs_gate programs
  in
  let tree_gate =
    sweep ~engine:Verify.Tv.Interp ~verify:true ~jobs:jobs_gate programs
  in
  Verify.Tv.set_engine (Verify.Tv.Vm);
  let overhead (v : Common.sweep) =
    100.0 *. (v.seconds -. plain.seconds) /. Float.max plain.seconds 1e-9
  in
  Printf.printf "verified sweeps (%d programs x 35 actions):\n" n;
  Printf.printf "  plain sweep      (--jobs 1): %6.2f s\n" plain.seconds;
  Printf.printf
    "  --verify, tree   (--jobs 1): %6.2f s (%.1f%% overhead, %.1f \
     programs/s)\n"
    tree_sweep.seconds (overhead tree_sweep)
    (float_of_int n /. Float.max tree_sweep.seconds 1e-9);
  Printf.printf
    "  --verify, vm     (--jobs 1): %6.2f s (%.1f%% overhead, %.1f \
     programs/s)\n"
    vm_sweep.seconds (overhead vm_sweep)
    (float_of_int n /. Float.max vm_sweep.seconds 1e-9);
  Printf.printf "  --verify, vm     (--jobs %d): %6.2f s\n" jobs
    vm_pool.seconds;
  Printf.printf "  verdicts         (--jobs 1): %d proved / %d by the ladder\n"
    (fst proofs) (snd proofs);

  (* the gates: speedup is unshippable unless the bits are unchanged *)
  Common.check_identical ~what:"verify on vs off (jobs 1)" plain vm_sweep;
  Common.check_identical ~what:"vm vs tree engine (jobs 1)" tree_sweep
    vm_sweep;
  Common.check_identical ~what:"vm jobs 1 vs pool" vm_sweep vm_pool;
  Common.check_identical ~what:"vm vs tree engine (gate pool)" tree_gate
    vm_gate;
  Common.check_identical ~what:"vm jobs 1 vs gate pool" vm_sweep vm_gate;

  (* counterexample identity: the sabotage knob through both engines *)
  let sab_src =
    "int a[64]; int b[64];\n\
     int kernel() { int i; for (i=0;i<64;i++) a[i] = b[i] + 1; return \
     a[7]; }"
  in
  let lower src = Ir_lower.lower_program (Minic.Parser.parse_string src) in
  let scalar = lower sab_src and vec = lower sab_src in
  let cx_of engine =
    Verify.Tv.set_engine engine;
    Neurovec.Frontend.clear ();
    match
      Verify.Tv.verify ~sabotage:true ~key:"verifybench-sab" ~scalar
        ~scalar_key:"verifybench-sab-s" ~kernel:"kernel" vec
    with
    | Verify.Tv.Refuted cx -> Verify.Tv.render cx
    | Verify.Tv.Equivalent -> failwith "verifybench: sabotage not refuted"
  in
  let cx_vm = cx_of Verify.Tv.Vm and cx_tree = cx_of Verify.Tv.Interp in
  Verify.Tv.set_engine Verify.Tv.Vm;
  if cx_vm <> cx_tree then
    failwith
      (Printf.sprintf
         "verifybench: counterexamples drifted between engines (%S vs %S)"
         cx_vm cx_tree);
  Printf.printf
    "bit-identical: yes (tree = vm at jobs 1 and jobs %d, vm at jobs %d; \
     counterexamples byte-identical)\n"
    jobs_gate jobs;

  Common.write_bench ~required:required_keys "BENCH_verify.json"
    (json_of ~programs:n ~modules:n_mods ~jobs_pool:jobs ~jobs_gate ~tree ~vm
       ~plain ~tree_sweep ~vm_sweep ~vm_pool ~proofs);
  if vm.mi_fallback > 0 then
    failwith
      (Printf.sprintf
         "verifybench: %d/%d modules fell back to the tree walker — the \
          corpus is supposed to be fully compilable"
         vm.mi_fallback
         (vm.mi_compiled + vm.mi_fallback));
  (* the throughput gate needs a quiet machine; CI runners relax it with
     NEUROVEC_VERIFYBENCH_SPEEDUP_GATE=0 and gate on bit-identity only
     (every identity check above is an unconditional failwith) *)
  let gate =
    match Sys.getenv_opt "NEUROVEC_VERIFYBENCH_SPEEDUP_GATE" with
    | Some s -> ( match float_of_string_opt s with Some g -> g | None -> 3.0)
    | None -> 3.0
  in
  if interp_speedup < gate then
    failwith
      (Printf.sprintf
         "verifybench: interpreter speedup %.2fx is below the %.1fx gate"
         interp_speedup gate)
