(* Translation validation: the Tv differential oracle, the [Miscompiled]
   failure taxonomy, the verdict cache and its journal records, and the
   legality fuzzer.

   The contract under test: with --verify on, every evaluated plan is
   checked against the scalar reference over a content-derived input set;
   a refutation quarantines the program as miscompiled with a minimized
   counterexample, is never retried as transient, and every verdict is
   bit-identical between --jobs 1 and --jobs 4 — including under active
   fault injection. *)

let bits = Int64.bits_of_float

let verify_options =
  { Neurovec.Pipeline.default_options with Neurovec.Pipeline.verify = true }

let miscompile_options ?(seed = 31) ?(transient = 0.0) p =
  { Neurovec.Pipeline.default_options with
    Neurovec.Pipeline.verify = true;
    Neurovec.Pipeline.faults =
      Neurovec.Faults.create ~seed ~transient ~miscompile:p () }

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let lower src = Ir_lower.lower_program (Minic.Parser.parse_string src)

let find_fn m name =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

(* lower [src] and vectorize every innermost loop of [name] with the
   legality-clamped plan — the module a --verify evaluation would check *)
let transformed ?(vf = 4) ?(if_ = 1) src name =
  let m = lower src in
  let fn = find_fn m name in
  List.iter
    (fun info ->
      let leg = Vectorizer.Legality.of_info info in
      let vf, if_ = Vectorizer.Legality.clamp leg ~vf ~if_ in
      ignore (Vectorizer.Transform.vectorize_in_func fn info { Vectorizer.Transform.vf; if_ }))
    (Analysis.Loopinfo.innermost_infos fn);
  m

(* ------------------------------------------------------------------ *)
(* The Tv oracle                                                        *)
(* ------------------------------------------------------------------ *)

let test_tv_inputs_deterministic () =
  (* the ladder's key is a verdict's scalar key: program hash, kernel *)
  let k = "prog-hash|kernel" in
  let inputs = Verify.Tv.inputs_of_key k in
  Alcotest.(check (list string))
    "same key, same ladder"
    (List.map Verify.Tv.input_name inputs)
    (List.map Verify.Tv.input_name (Verify.Tv.inputs_of_key k));
  (match inputs with
  | [ Verify.Tv.Zeros; Verify.Tv.Ramp; Verify.Tv.Hashed s1;
      Verify.Tv.Hashed s2 ] ->
      Alcotest.(check bool) "seeds positive" true (s1 > 0 && s2 > 0);
      Alcotest.(check bool) "seeds independent" true (s1 <> s2)
  | _ -> Alcotest.fail "ladder is zeros, ramp, two seeded fills");
  Alcotest.(check bool) "different keys, different seeds" true
    (Verify.Tv.inputs_of_key k <> Verify.Tv.inputs_of_key (k ^ "x"))

let copy_src =
  "int a[64]; int b[64];\n\
   int kernel() { int i; for (i=0;i<64;i++) a[i] = b[i] + 1; return a[7]; }"

let test_tv_equivalent_on_clean_transform () =
  Memo.clear_all ();
  let scalar = lower copy_src in
  let vec = transformed ~vf:8 copy_src "kernel" in
  match
    Verify.Tv.verify ~key:"tv-clean" ~scalar ~scalar_key:"tv-clean-s"
      ~kernel:"kernel" vec
  with
  | Verify.Tv.Equivalent -> ()
  | Verify.Tv.Refuted cx ->
      Alcotest.failf "clean transform refuted: %s" (Verify.Tv.render cx)

let test_tv_refutes_wrong_code () =
  (* the "transform" computes +2 where the reference computes +1: the
     refutation must land on the simplest input (zeros) and name the
     lexicographically first diverging cell *)
  Memo.clear_all ();
  let scalar = lower copy_src in
  let wrong =
    lower
      "int a[64]; int b[64];\n\
       int kernel() { int i; for (i=0;i<64;i++) a[i] = b[i] + 2; return a[7]; }"
  in
  match
    Verify.Tv.verify ~key:"tv-wrong" ~scalar ~scalar_key:"tv-wrong-s"
      ~kernel:"kernel" wrong
  with
  | Verify.Tv.Equivalent -> Alcotest.fail "wrong code accepted"
  | Verify.Tv.Refuted cx ->
      Alcotest.(check string) "minimized to zeros" "zeros"
        cx.Verify.Tv.cx_input;
      Alcotest.(check string) "result diverges first" "result"
        cx.Verify.Tv.cx_cell;
      Alcotest.(check string) "scalar value" "1" cx.Verify.Tv.cx_scalar;
      Alcotest.(check string) "vector value" "2" cx.Verify.Tv.cx_vector

let test_tv_refutes_divergent_cell () =
  (* same return value, one memory cell off: the counterexample names the
     cell, not the result *)
  Memo.clear_all ();
  let scalar = lower copy_src in
  let wrong =
    lower
      "int a[64]; int b[64];\n\
       int kernel() { int i; for (i=0;i<64;i++) a[i] = b[i] + 1;\n\
       a[9] = a[9] + 5; return a[7]; }"
  in
  match
    Verify.Tv.verify ~key:"tv-cell" ~scalar ~scalar_key:"tv-cell-s"
      ~kernel:"kernel" wrong
  with
  | Verify.Tv.Equivalent -> Alcotest.fail "diverging cell accepted"
  | Verify.Tv.Refuted cx ->
      Alcotest.(check string) "first diverging cell" "a[9]"
        cx.Verify.Tv.cx_cell;
      Alcotest.(check bool) "rendered counterexample carries the input" true
        (contains (Verify.Tv.render cx) "input=zeros")

let test_tv_sabotage_refutes () =
  (* the miscompile fault knob corrupts the transformed run: identical
     modules must then be refuted, deterministically in the key *)
  Memo.clear_all ();
  let scalar = lower copy_src in
  let vec = transformed copy_src "kernel" in
  let verdict () =
    Verify.Tv.verify ~sabotage:true ~key:"tv-sab" ~scalar
      ~scalar_key:"tv-sab-s" ~kernel:"kernel" vec
  in
  match (verdict (), verdict ()) with
  | Verify.Tv.Refuted a, Verify.Tv.Refuted b ->
      Alcotest.(check string) "sabotage is pure in the key"
        (Verify.Tv.render a) (Verify.Tv.render b)
  | _ -> Alcotest.fail "sabotaged run must be refuted, twice identically"

let test_tv_trap_asymmetry () =
  (* a trap only on the transformed side refutes; the message carries the
     interpreter's faulting address *)
  Memo.clear_all ();
  let scalar = lower copy_src in
  let oob =
    lower
      "int a[64]; int b[64];\n\
       int kernel() { int i; for (i=0;i<65;i++) a[i] = b[i] + 1; return 0; }"
  in
  match
    Verify.Tv.verify ~key:"tv-trap" ~scalar ~scalar_key:"tv-trap-s"
      ~kernel:"kernel" oob
  with
  | Verify.Tv.Equivalent -> Alcotest.fail "trapping transform accepted"
  | Verify.Tv.Refuted cx ->
      Alcotest.(check string) "refuted as a trap" "trap" cx.Verify.Tv.cx_cell;
      Alcotest.(check bool)
        (Printf.sprintf "trap message has the address (%s)"
           cx.Verify.Tv.cx_vector)
        true
        (contains cx.Verify.Tv.cx_vector "out-of-bounds"
        && contains cx.Verify.Tv.cx_vector "[64]")

let test_tv_float_reduction_tolerated () =
  (* vectorizing a float reduction reassociates the sum — a legal rounding
     change inside the documented tolerance, not a miscompile *)
  Memo.clear_all ();
  let src =
    "double x[128]; double y[128]; double s[1];\n\
     int kernel() { int i; s[0] = 0.0;\n\
     for (i=0;i<128;i++) s[0] = s[0] + x[i] * y[i]; return 0; }"
  in
  let scalar = lower src in
  let vec = transformed ~vf:8 src "kernel" in
  match
    Verify.Tv.verify ~key:"tv-red" ~scalar ~scalar_key:"tv-red-s"
      ~kernel:"kernel" vec
  with
  | Verify.Tv.Equivalent -> ()
  | Verify.Tv.Refuted cx ->
      Alcotest.failf "reassociated reduction refuted: %s"
        (Verify.Tv.render cx)

let test_tv_second_plan_reuses_scalar_runs () =
  (* the ladder derives from the program alone, so a second plan of one
     program finds all four scalar runs cached, with their images: it
     runs only its transformed side, and builds no input *)
  Memo.clear_all ();
  let scalar = lower copy_src in
  let tv_scalar () =
    List.find (fun c -> c.Memo.name = "tv-scalar") (Memo.all ())
  in
  let verdict key vf =
    match
      Verify.Tv.verify ~key ~scalar ~scalar_key:"tv-reuse-s" ~kernel:"kernel"
        (transformed ~vf copy_src "kernel")
    with
    | Verify.Tv.Equivalent -> "equivalent"
    | Verify.Tv.Refuted cx -> Verify.Tv.render cx
  in
  let images0 = Counter.get Verify.Tv.images in
  let first = verdict "tv-reuse-vf4" 4 in
  Alcotest.(check int) "first verdict builds the four inputs" 4
    (Counter.get Verify.Tv.images - images0);
  let hits0 = (tv_scalar ()).Memo.hits in
  let images1 = Counter.get Verify.Tv.images in
  let second = verdict "tv-reuse-vf8" 8 in
  Alcotest.(check string) "first plan verified" "equivalent" first;
  Alcotest.(check string) "second plan verified" "equivalent" second;
  Alcotest.(check int) "second verdict reuses all four scalar runs" 4
    ((tv_scalar ()).Memo.hits - hits0);
  Alcotest.(check int) "second verdict builds no image" 0
    (Counter.get Verify.Tv.images - images1);
  Alcotest.(check int) "one entry per input" 4 (tv_scalar ()).Memo.size

(* ------------------------------------------------------------------ *)
(* Failure taxonomy: Miscompiled is terminal, never transient           *)
(* ------------------------------------------------------------------ *)

(* a verdict builds every declared array at its declared size, so a
   module declaring 2^62 cells is refused before anything is allocated:
   by Tv itself, and through the oracle, which quarantines the baseline
   as it would a trap *)
let huge_src =
  "int vec[4611686018427387903];\n\
   int kernel() { int i; for (i=0;i<64;i++) vec[i] = vec[i] + i; return vec[0]; }"

let test_tv_refuses_oversized () =
  let m = lower huge_src in
  (match
     Verify.Tv.verify ~key:"tv-huge" ~scalar:m ~scalar_key:"tv-huge-s"
       ~kernel:"kernel" m
   with
  | _ -> Alcotest.fail "a 2^62-cell module was verified"
  | exception Verify.Tv.Over_budget msg ->
      Alcotest.(check bool) "names the budget" true
        (contains msg (string_of_int Verify.Tv.cell_budget)));
  let oracle =
    Neurovec.Reward.create ~options:verify_options
      [| Dataset.Program.make ~family:"verify" "huge" huge_src |]
  in
  match Neurovec.Reward.baseline oracle 0 with
  | _ -> Alcotest.fail "an oversized baseline was measured under --verify"
  | exception Neurovec.Reward.Quarantined (_, why) ->
      Alcotest.(check bool) "quarantined as a trap" true
        (contains why "baseline trap:")

let test_classify_miscompile () =
  (match Neurovec.Reward.classify_exn (Verify.Tv.Miscompile "cx") with
  | Some (Neurovec.Reward.Miscompiled, "cx") -> ()
  | _ -> Alcotest.fail "Tv.Miscompile must classify as Miscompiled");
  Alcotest.(check string) "taxonomy name" "miscompile"
    (Neurovec.Reward.failure_name Neurovec.Reward.Miscompiled);
  Alcotest.(check bool) "name round-trips" true
    (Neurovec.Reward.failure_of_name "miscompile"
    = Some Neurovec.Reward.Miscompiled)

let test_miscompile_never_retried () =
  (* a refutation is a pure function of (program, plan): the supervised
     retry loop must let it through on the first attempt, unlike a
     transient fault *)
  Test_supervisor.with_supervision ~retries:3 (fun () ->
      let attempts = ref 0 in
      (match
         Neurovec.Supervisor.with_retries (fun ~attempt:_ ->
             incr attempts;
             raise (Verify.Tv.Miscompile "cx"))
       with
      | _ -> Alcotest.fail "refutation swallowed by the retry loop"
      | exception Verify.Tv.Miscompile "cx" -> ()
      | exception e ->
          Alcotest.failf "refutation re-raised as %s" (Printexc.to_string e));
      Alcotest.(check int) "exactly one attempt" 1 !attempts)

(* ------------------------------------------------------------------ *)
(* --verify sweeps through the reward oracle                            *)
(* ------------------------------------------------------------------ *)

let test_verified_sweep_clean_corpus () =
  (* the acceptance gate: a --verify sweep over the seed corpus must
     quarantine nothing as miscompiled, and must actually verify *)
  let programs = Dataset.Loopgen.generate ~seed:101 8 in
  Neurovec.Stats.reset ();
  let results, quarantined =
    Test_parallel.sweep ~options:verify_options ~jobs:1 programs
  in
  Alcotest.(check (list (pair string string))) "no quarantine" [] quarantined;
  Array.iter
    (fun r -> Alcotest.(check bool) "swept" true (r <> None))
    results;
  let verdicts = Neurovec.Stats.cache (Neurovec.Stats.snapshot ()) "verdict" in
  Alcotest.(check bool) "verdicts were computed" true
    (verdicts.Memo.misses > 0);
  Alcotest.(check int) "zero refutations" 0
    (Counter.get Neurovec.Stats.verify_refutes);
  Alcotest.(check int) "zero counterexamples" 0
    (Counter.get Neurovec.Stats.verify_cx);
  Alcotest.(check bool) "stats report shows the verdict cache" true
    (contains (Neurovec.Stats.report ()) "verify cache");
  (* verify off on the same corpus: rewards must be untouched by the
     validator (goldens unchanged when --verify is off is covered by the
     golden suite; here we pin on = off for the rewards themselves) *)
  let plain, _ =
    Test_parallel.sweep ~options:Neurovec.Pipeline.default_options ~jobs:1
      programs
  in
  Array.iteri
    (fun i r ->
      match (r, plain.(i)) with
      | Some (a, rv), Some (a', rv') ->
          Alcotest.(check bool) "same best action" true (a = a');
          Alcotest.(check int64) "same reward bits" (bits rv') (bits rv)
      | _ -> Alcotest.fail "quarantine state diverged with --verify")
    results

let test_verified_sweep_jobs_identity () =
  let programs = Dataset.Loopgen.generate ~seed:101 8 in
  Test_parallel.check_sweeps_equal
    (Test_parallel.sweep ~options:verify_options ~jobs:1 programs)
    (Test_parallel.sweep ~options:verify_options ~jobs:4 programs)

let test_miscompile_knob_caught () =
  (* every program whose evaluation the knob corrupts must be quarantined
     as miscompiled, with the minimized counterexample in the report, and
     the whole outcome must be bit-identical across pool sizes *)
  let programs = Dataset.Loopgen.generate ~seed:101 8 in
  let options = miscompile_options 1.0 in
  Neurovec.Stats.reset ();
  let ((results, quarantined) as sw1) =
    Test_parallel.sweep ~options ~jobs:1 programs
  in
  let snap = Neurovec.Stats.snapshot () in
  Alcotest.(check bool) "refutations recorded" true
    (Counter.get Neurovec.Stats.verify_refutes > 0);
  Alcotest.(check bool) "counterexamples minted" true
    (Counter.get Neurovec.Stats.verify_cx > 0);
  Alcotest.(check bool) "miscompiles in the failure taxonomy" true
    (match List.assoc_opt "miscompile" snap.Neurovec.Stats.failures with
    | Some n -> n > 0
    | None -> false);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "everything quarantined" true (r = None))
    results;
  Alcotest.(check int) "all programs reported" (Array.length programs)
    (List.length quarantined);
  List.iter
    (fun (name, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: quarantined as miscompiled (%s)" name why)
        true
        (contains why "miscompile" && contains why "input="
        && contains why "cell="))
    quarantined;
  Test_parallel.check_sweeps_equal sw1
    (Test_parallel.sweep ~options ~jobs:4 programs)

let test_partial_miscompile_jobs_identity_under_faults () =
  (* miscompiles mixed with genuine transient faults and retries: the
     counterexamples, quarantine report and surviving rewards must not
     depend on the pool size.  The rate is low because one refuted plan
     poisons its whole program — 0.3 over 36 plans would quarantine
     everything and prove nothing about survivors. *)
  Test_supervisor.with_supervision ~retries:2 (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:101 10 in
      let options = miscompile_options ~transient:0.2 0.015 in
      let run jobs =
        Neurovec.Stats.reset ();
        let sw = Test_parallel.sweep ~options ~jobs programs in
        ( sw,
          Counter.get Neurovec.Stats.verify_refutes,
          Counter.get Neurovec.Stats.verify_cx )
      in
      let sw1, refutes1, cx1 = run 1 in
      let sw4, refutes4, cx4 = run 4 in
      Test_parallel.check_sweeps_equal sw1 sw4;
      Alcotest.(check int) "refutation count identical" refutes1 refutes4;
      Alcotest.(check int) "counterexample count identical" cx1 cx4;
      Alcotest.(check bool) "some refutations happened" true (refutes1 > 0);
      (* some program must survive, or the partial knob proves nothing *)
      let survivors, _ = sw1 in
      Alcotest.(check bool) "some programs survive" true
        (Array.exists (fun r -> r <> None) survivors))

let test_miscompiled_entry_and_refutation_accessor () =
  (* find a program whose baseline survives but whose sweep hits the
     knob: its entry must be the penalized Miscompiled kind and the
     accessor must return the recorded counterexample *)
  let programs = Dataset.Loopgen.generate ~seed:101 10 in
  let options = miscompile_options 0.3 in
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options programs in
  let found = ref 0 in
  Array.iteri
    (fun idx _ ->
      match Neurovec.Reward.baseline oracle idx with
      | exception Neurovec.Reward.Quarantined _ -> ()
      | _ ->
          List.iter
            (fun a ->
              let e = Neurovec.Reward.entry oracle idx a in
              if e.Neurovec.Reward.e_failure = Some Neurovec.Reward.Miscompiled
              then begin
                incr found;
                Alcotest.(check bool) "penalized" true
                  e.Neurovec.Reward.e_penalized;
                match Neurovec.Reward.refutation oracle idx a with
                | Some cx ->
                    Alcotest.(check bool) "counterexample recorded" true
                      (contains cx "input=" && contains cx "cell=")
                | None -> Alcotest.fail "Miscompiled entry lost its evidence"
              end)
            Rl.Spaces.all_actions)
    programs;
  Alcotest.(check bool)
    (Printf.sprintf "knob hit some surviving programs (%d points)" !found)
    true (!found > 0)

(* ------------------------------------------------------------------ *)
(* Verdict journal: V records, replay, corruption matrix                *)
(* ------------------------------------------------------------------ *)

let with_temp_file suffix f =
  let path = Filename.temp_file "neurovec_verify" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let journal_corpus () = Dataset.Loopgen.generate ~seed:106 6

let journal_reference path =
  let programs = journal_corpus () in
  let options = miscompile_options ~seed:31 0.4 in
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options programs in
  Neurovec.Reward.set_journal oracle path;
  let sw = Neurovec.Reward.sweep_all oracle in
  let quar = Neurovec.Reward.quarantine_report oracle in
  Neurovec.Reward.close_journal oracle;
  (programs, options, (sw, quar))

let replay_and_sweep programs options path =
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options programs in
  let n = Neurovec.Reward.replay_journal oracle path in
  let sw = Neurovec.Reward.sweep_all oracle in
  (n, (sw, Neurovec.Reward.quarantine_report oracle), oracle)

let test_journal_v_records_replay () =
  with_temp_file ".journal" (fun path ->
      Sys.remove path;
      let programs, options, reference = journal_reference path in
      Alcotest.(check bool) "journal has V records" true
        (contains (read_file path) "\nV\t");
      Neurovec.Stats.reset ();
      let n, again, restored = replay_and_sweep programs options path in
      Alcotest.(check bool) "records replayed" true (n > 0);
      Alcotest.(check int) "no re-evaluation: pipeline runs" 0
        (Counter.get Neurovec.Stats.pipeline_runs);
      Alcotest.(check int) "no re-verification" 0
        (Neurovec.Stats.cache (Neurovec.Stats.snapshot ()) "verdict")
          .Memo.misses;
      Test_parallel.check_sweeps_equal reference again;
      (* replayed refutations serve the accessor *)
      let fresh = Neurovec.Reward.create ~options programs in
      ignore (Neurovec.Reward.replay_journal fresh path);
      Array.iteri
        (fun idx _ ->
          List.iter
            (fun a ->
              Alcotest.(check (option string))
                "refutation survives replay"
                (Neurovec.Reward.refutation restored idx a)
                (Neurovec.Reward.refutation fresh idx a))
            Rl.Spaces.all_actions)
        programs)

let test_journal_corruption_matrix () =
  with_temp_file ".journal" (fun path ->
      Sys.remove path;
      let programs, options, reference = journal_reference path in
      let full = read_file path in
      let lines = String.split_on_char '\n' full in
      let check_case name mutated =
        write_file path mutated;
        let _, again, _ = replay_and_sweep programs options path in
        Test_parallel.check_sweeps_equal reference again;
        ignore name
      in
      (* flipped byte inside a V record's key: the record lands under a
         key nothing looks up; the sweep re-derives bit-identically *)
      let flip_v line =
        match String.split_on_char '\t' line with
        | "V" :: key :: rest when String.length key > 0 ->
            String.concat "\t"
              ("V" :: ("Z" ^ String.sub key 1 (String.length key - 1)) :: rest)
        | _ -> line
      in
      Alcotest.(check bool) "a V record exists to corrupt" true
        (List.exists (fun l -> flip_v l <> l) lines);
      check_case "flipped V key"
        (String.concat "\n" (List.map flip_v lines));
      (* torn tail: a crash mid-append loses the terminator; the partial
         record is skipped *)
      check_case "torn tail" (String.sub full 0 (String.length full - 3));
      (* a garbage line between records is skipped, not fatal *)
      check_case "garbage line"
        (String.concat "\n"
           (match lines with
           | hdr :: rest -> hdr :: "X\tnot a record" :: rest
           | [] -> [ "X\tnot a record" ]));
      (* V record dropped entirely: the quarantine report still carries
         the counterexample (it rides in the Q record), and rewards
         re-derive *)
      check_case "dropped V records"
        (String.concat "\n"
           (List.filter
              (fun l -> String.length l < 2 || String.sub l 0 2 <> "V\t")
              lines)))

(* ------------------------------------------------------------------ *)
(* The legality fuzzer                                                  *)
(* ------------------------------------------------------------------ *)

let test_fuzz_generator_deterministic () =
  let a = Verify.Loopfuzz.generate ~seed:9 24 in
  let b = Verify.Loopfuzz.generate ~seed:9 24 in
  Alcotest.(check int) "count" 24 (Array.length a);
  Array.iteri
    (fun i c ->
      Alcotest.(check string) "same source"
        c.Verify.Loopfuzz.c_program.Dataset.Program.p_source
        b.(i).Verify.Loopfuzz.c_program.Dataset.Program.p_source;
      Alcotest.(check bool) "same plan" true
        (c.Verify.Loopfuzz.c_vf = b.(i).Verify.Loopfuzz.c_vf
        && c.Verify.Loopfuzz.c_if = b.(i).Verify.Loopfuzz.c_if))
    a;
  Alcotest.(check bool) "different seeds differ" true
    (a.(0).Verify.Loopfuzz.c_program.Dataset.Program.p_source
    <> (Verify.Loopfuzz.generate ~seed:10 1).(0)
         .Verify.Loopfuzz.c_program.Dataset.Program.p_source)

let test_fuzz_hunt_finds_nothing () =
  (* the CI gate in miniature: dependence-boundary loops, clamped plans,
     zero refutations.  A failure here is a real legality bug. *)
  let refutations, st = Verify.Loopfuzz.hunt ~seed:9 ~iterations:48 () in
  Alcotest.(check int) "all cases ran" 48 st.Verify.Loopfuzz.hs_ran;
  Alcotest.(check bool) "no deadline hit" false
    st.Verify.Loopfuzz.hs_deadline_hit;
  Alcotest.(check int) "family coverage sums to the run count" 48
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0 st.Verify.Loopfuzz.hs_families);
  match refutations with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "legality bug: %s (VF=%d IF=%d applied %s): %s\n%s"
        r.Verify.Loopfuzz.r_name r.Verify.Loopfuzz.r_vf
        r.Verify.Loopfuzz.r_if r.Verify.Loopfuzz.r_applied
        r.Verify.Loopfuzz.r_cx r.Verify.Loopfuzz.r_source

let test_fuzz_deadline_truncates () =
  let refutations, st =
    Verify.Loopfuzz.hunt ~deadline_s:0.0 ~seed:9 ~iterations:1000 ()
  in
  let ran = st.Verify.Loopfuzz.hs_ran in
  Alcotest.(check (list string)) "no refutations" []
    (List.map (fun r -> r.Verify.Loopfuzz.r_name) refutations);
  Alcotest.(check bool)
    (Printf.sprintf "deadline truncated the hunt (%d ran)" ran)
    true (ran < 1000);
  Alcotest.(check bool) "deadline reported" true
    st.Verify.Loopfuzz.hs_deadline_hit

(* ------------------------------------------------------------------ *)
(* The bytecode VM: engine bit-identity and the compiled-code cache     *)
(* ------------------------------------------------------------------ *)

(* build (scalar, transformed) through the exact passes Loopfuzz.check
   and the pipeline's shared-artifact path use *)
let fuzz_modules (p : Dataset.Program.t) ~vf ~if_ =
  let bindings = p.Dataset.Program.p_bindings in
  let prog = Minic.Parser.parse_string p.Dataset.Program.p_source in
  ignore (Minic.Sema.analyze ~bindings prog);
  let scalar = Ir_lower.lower_program ~bindings prog in
  let m = Ir_lower.lower_program ~bindings prog in
  ignore (Vectorizer.Licm.run_modul m);
  ignore (Vectorizer.Cse.run_modul m);
  ignore (Vectorizer.Licm.run_modul m);
  let preps = Vectorizer.Planner.prepare_modul m in
  ignore
    (Vectorizer.Planner.run_prepared
       ~plan:(Some { Vectorizer.Transform.vf; if_ })
       m preps);
  ignore (Vectorizer.Licm.run_modul m);
  (scalar, m)

(* one engine run, raw: outcome or trap, final memory, fuel spent *)
type raw = {
  raw_result : (Ir_interp.rvalue_v option, string) result;
  raw_mem : (string * Ir_interp.mem) list;
  raw_steps : int option;  (* None when the engine trapped *)
}

let sorted_mem (st : Ir_interp.state) =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Ir_interp.mem [])

(* [pl] as the tree walker's boxed memory, sorted by name *)
let boxed_of_planes (prog : Ir_vm.program) (pl : Ir_vm.planes) =
  Ir_vm.bindings prog pl
  |> Array.map (fun (name, plane) ->
         match plane with
         | `I p -> (name, Ir_interp.MI (Array.map Int64.of_int p))
         | `F p -> (name, Ir_interp.MF p))
  |> Array.to_list |> List.sort compare

let tree_raw ?max_steps (m : Ir.modul) ~kernel (fill : Ir_interp.fill) : raw
    =
  let st = Ir_interp.init_state ~fill ?max_steps m in
  match Ir_interp.run_func st (find_fn m kernel) () with
  | r ->
      { raw_result = Ok r; raw_mem = sorted_mem st;
        raw_steps = Some st.Ir_interp.steps }
  | exception Ir_interp.Trap msg ->
      { raw_result = Error msg; raw_mem = sorted_mem st; raw_steps = None }

(* one VM run on a private copy of [fill]'s image *)
let vm_raw ?max_steps (m : Ir.modul) ~kernel (fill : Ir_interp.fill) :
    raw option =
  match Ir_vm.compile m ~kernel with
  | None -> None
  | Some prog -> (
      let pl = Ir_vm.copy_for prog (Ir_vm.image m.Ir.m_arrays fill) in
      match Ir_vm.run_planes prog pl ?max_steps () with
      | out ->
          Some
            { raw_result = Ok out.Ir_vm.o_result;
              raw_mem = boxed_of_planes prog pl;
              raw_steps = Some out.Ir_vm.o_steps }
      | exception Ir_interp.Trap msg ->
          Some
            { raw_result = Error msg; raw_mem = boxed_of_planes prog pl;
              raw_steps = None })

let rv_bits_equal (a : Ir_interp.rvalue_v option)
    (b : Ir_interp.rvalue_v option) : bool =
  match (a, b) with
  | Some (Ir_interp.VF x), Some (Ir_interp.VF y) -> bits x = bits y
  | Some (Ir_interp.VVF x), Some (Ir_interp.VVF y) ->
      Array.length x = Array.length y
      && Array.for_all2 (fun p q -> bits p = bits q) x y
  | _ -> a = b

let mem_bits_equal (a : Ir_interp.mem) (b : Ir_interp.mem) : bool =
  match (a, b) with
  | Ir_interp.MI x, Ir_interp.MI y -> x = y
  | Ir_interp.MF x, Ir_interp.MF y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun p q -> bits p = bits q) x y
  | _ -> false

(* why two raw runs differ, or None when bit-identical — including the
   partial memory left behind by a trap (both engines execute the same
   ops in the same order, so a mid-loop trap leaves identical writes) *)
let raw_diff (t : raw) (v : raw) : string option =
  match (t.raw_result, v.raw_result) with
  | Ok _, Error e -> Some ("vm trapped, tree did not: " ^ e)
  | Error e, Ok _ -> Some ("tree trapped, vm did not: " ^ e)
  | Error x, Error y when x <> y ->
      Some (Printf.sprintf "trap message %S vs %S" x y)
  | Ok x, Ok y when not (rv_bits_equal x y) -> Some "result bits differ"
  | _ ->
      if t.raw_steps <> v.raw_steps then
        Some
          (Printf.sprintf "fuel %s vs %s"
             (match t.raw_steps with Some n -> string_of_int n | None -> "-")
             (match v.raw_steps with Some n -> string_of_int n | None -> "-"))
      else if List.map fst t.raw_mem <> List.map fst v.raw_mem then
        Some "array sets differ"
      else
        List.fold_left2
          (fun acc (name, a) (_, b) ->
            match acc with
            | Some _ -> acc
            | None ->
                if mem_bits_equal a b then None
                else Some (Printf.sprintf "memory %s diverged" name))
          None t.raw_mem v.raw_mem

let check_engines_identical ~(what : string) (m : Ir.modul)
    ~(kernel : string) ~(seed : int) : bool =
  let fill = Ir_interp.Hashed seed in
  match vm_raw m ~kernel fill with
  | None -> false (* compiler declined; the tree walker is the engine *)
  | Some v -> (
      match raw_diff (tree_raw m ~kernel fill) v with
      | None -> true
      | Some why -> Alcotest.failf "%s (seed %d): %s" what seed why)

(* qcheck: the six dependence-boundary families through both engines —
   bit-identical memory, results, traps, and fuel on every case *)
let prop_vm_fuzz_families_bit_identical =
  QCheck.Test.make ~name:"vm vs interpreter on loopfuzz families" ~count:40
    QCheck.(
      make
        ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
        Gen.(int_range 3000 3999))
    (fun seed ->
      let cases = Verify.Loopfuzz.generate ~seed 6 in
      Array.for_all
        (fun c ->
          let p = c.Verify.Loopfuzz.c_program in
          let scalar, vec =
            fuzz_modules p ~vf:c.Verify.Loopfuzz.c_vf
              ~if_:c.Verify.Loopfuzz.c_if
          in
          let kernel = p.Dataset.Program.p_kernel in
          let both m what =
            List.for_all
              (fun s -> check_engines_identical ~what m ~kernel ~seed:s)
              [ 1; 77 ]
          in
          (* require the VM to actually cover these shapes: a silent
             fallback would turn this property into a no-op *)
          both scalar (p.Dataset.Program.p_name ^ " scalar")
          && both vec (p.Dataset.Program.p_name ^ " transformed"))
        cases)

let test_vm_trap_parity () =
  (* an out-of-bounds store: same trap message, same faulting address,
     same partial memory at the point of the trap *)
  let src =
    "int a[8];\nint kernel() { int i; for (i=0;i<16;i++) a[i] = i + 1; \
     return 0; }"
  in
  let m = lower src in
  let t = tree_raw m ~kernel:"kernel" (Ir_interp.Hashed 0) in
  (match t.raw_result with
  | Error msg ->
      Alcotest.(check string) "tree traps out of bounds"
        "out-of-bounds store a[8] (size 8)" msg
  | Ok _ -> Alcotest.fail "expected the tree walker to trap");
  match vm_raw m ~kernel:"kernel" (Ir_interp.Hashed 0) with
  | None -> Alcotest.fail "vm declined a plain counted loop"
  | Some v -> (
      match raw_diff t v with
      | None -> ()
      | Some why -> Alcotest.failf "engines diverged: %s" why)

let test_vm_fuel_parity () =
  let m = lower copy_src in
  (* both engines must exhaust the same budget on the same instruction *)
  let t = tree_raw ~max_steps:50 m ~kernel:"kernel" (Ir_interp.Hashed 0) in
  (match t.raw_result with
  | Error "step budget exceeded" -> ()
  | _ -> Alcotest.fail "tree should exhaust a 50-step budget");
  (match vm_raw ~max_steps:50 m ~kernel:"kernel" (Ir_interp.Hashed 0) with
  | None -> Alcotest.fail "vm declined the copy loop"
  | Some v -> (
      match raw_diff t v with
      | None -> ()
      | Some why -> Alcotest.failf "fuel-trap divergence: %s" why));
  (* and with room to finish, spend identical fuel *)
  let t = tree_raw m ~kernel:"kernel" (Ir_interp.Hashed 0) in
  match vm_raw m ~kernel:"kernel" (Ir_interp.Hashed 0) with
  | None -> Alcotest.fail "vm declined the copy loop"
  | Some v -> (
      match raw_diff t v with
      | None -> ()
      | Some why -> Alcotest.failf "engines diverged: %s" why)

(* run [f] with the VM code cache capped at [cap] entries, then restore
   the configured cap and empty the caches *)
let with_vm_cap (cap : int) (f : unit -> unit) : unit =
  let saved =
    (List.find (fun c -> c.Memo.name = "vm-code") (Memo.all ())).Memo.cap
  in
  Memo.set_capacity "vm-code" cap;
  Fun.protect
    ~finally:(fun () ->
      Memo.set_capacity "vm-code" saved;
      Memo.clear_all ())
    f

let test_vm_cache_fifo_and_none_caching () =
  Memo.clear_all ();
  let m = lower copy_src in
  let s0 = Memo.stats Ir_vm.code_cache in
  (* the cap counts entries across every shard, so FIFO is exact wherever
     the keys land *)
  with_vm_cap 2 @@ fun () ->
  let p1 = Ir_vm.load ~key:"a-key-1" m ~kernel:"kernel" in
  Alcotest.(check bool) "compiles" true (p1 <> None);
  (match (Ir_vm.load ~key:"a-key-1" m ~kernel:"kernel", p1) with
  | Some a, Some b ->
      Alcotest.(check bool) "second load is the same program" true (a == b)
  | _ -> Alcotest.fail "cached program lost");
  let s1 = Memo.stats Ir_vm.code_cache in
  Alcotest.(check int) "one cache hit" 1 (s1.Memo.hits - s0.Memo.hits);
  ignore (Ir_vm.load ~key:"a-key-2" m ~kernel:"kernel");
  ignore (Ir_vm.load ~key:"a-key-3" m ~kernel:"kernel");
  ignore (Ir_vm.load ~key:"a-key-4" m ~kernel:"kernel");
  let s2 = Memo.stats Ir_vm.code_cache in
  let fallbacks2 = Counter.get Ir_vm.fallbacks in
  Alcotest.(check int) "FIFO evicted past the cap" 2
    (s2.Memo.evictions - s0.Memo.evictions);
  (* fallback decisions are cached too: a missing kernel is one failed
     compile, then hits *)
  Alcotest.(check bool) "missing kernel falls back" true
    (Ir_vm.load ~key:"a-none" m ~kernel:"nope" = None);
  let s3 = Memo.stats Ir_vm.code_cache in
  Alcotest.(check bool) "fallback counted" true
    (Counter.get Ir_vm.fallbacks > fallbacks2);
  Alcotest.(check bool) "cached fallback" true
    (Ir_vm.load ~key:"a-none" m ~kernel:"nope" = None);
  let s4 = Memo.stats Ir_vm.code_cache in
  Alcotest.(check int) "fallback served from cache" 1
    (s4.Memo.hits - s3.Memo.hits)

let test_vm_cache_thrash_jobs_identity () =
  (* corruption-style: a 1-entry code cache thrashes on every lookup
     while 4 domains race compiles — verdicts, rewards, and quarantine
     must still be bit-identical to --jobs 1 *)
  with_vm_cap 1
    (fun () ->
      let programs = Dataset.Loopgen.generate ~seed:113 6 in
      Neurovec.Stats.reset ();
      Test_parallel.check_sweeps_equal
        (Test_parallel.sweep ~options:verify_options ~jobs:1 programs)
        (Test_parallel.sweep ~options:verify_options ~jobs:4 programs);
      Alcotest.(check bool) "vm executed the verification load" true
        (Counter.get Ir_vm.vm_steps > 0);
      Alcotest.(check bool) "thrashing cache evicted" true
        ((Memo.stats Ir_vm.code_cache).Memo.evictions > 0);
      Alcotest.(check bool) "stats report shows the vm code cache" true
        (contains (Neurovec.Stats.report ()) "vm code cache"))

let test_vm_engine_verdicts_identical () =
  (* the sabotage knob through both engines: identical verdicts and
     byte-identical rendered counterexamples *)
  let scalar = lower copy_src in
  let vec = transformed ~vf:8 copy_src "kernel" in
  let run engine =
    Memo.clear_all ();
    Verify.Tv.set_engine engine;
    ( Verify.Tv.verify ~key:"eng-cmp" ~scalar ~scalar_key:"eng-cmp-s"
        ~kernel:"kernel" vec,
      Verify.Tv.verify ~sabotage:true ~key:"eng-cmp" ~scalar
        ~scalar_key:"eng-cmp-s" ~kernel:"kernel" vec )
  in
  Fun.protect
    ~finally:(fun () ->
      Verify.Tv.set_engine Verify.Tv.Vm;
      Memo.clear_all ())
    (fun () ->
      let clean_vm, sab_vm = run Verify.Tv.Vm in
      let clean_tree, sab_tree = run Verify.Tv.Interp in
      (match (clean_vm, clean_tree) with
      | Verify.Tv.Equivalent, Verify.Tv.Equivalent -> ()
      | _ -> Alcotest.fail "clean transform must verify on both engines");
      match (sab_vm, sab_tree) with
      | Verify.Tv.Refuted a, Verify.Tv.Refuted b ->
          Alcotest.(check string) "byte-identical counterexamples"
            (Verify.Tv.render b) (Verify.Tv.render a)
      | _ -> Alcotest.fail "sabotage must refute on both engines")

(* ------------------------------------------------------------------ *)
(* Linked closures: the specialized forms at their edges                *)
(* ------------------------------------------------------------------ *)

let compiled (m : Ir.modul) : Ir_vm.program =
  match Ir_vm.compile m ~kernel:"kernel" with
  | Some prog -> prog
  | None -> Alcotest.fail "vm declined the kernel"

(* a test of a specialized closure must reach it: [m] compiles an op
   [form] accepts *)
let check_form ~what (m : Ir.modul) (form : Ir_vm.op -> bool) : unit =
  Alcotest.(check bool) (what ^ ": form compiled") true
    (Array.exists form (compiled m).Ir_vm.p_ops)

(* MiniC statements setting long [x] to [v]: a negative literal lowers
   through a 32-bit negation, so subtract from zero instead *)
let set_long (x : string) (v : int) : string =
  if v >= 0 then Printf.sprintf "%s = %d;" x v
  else Printf.sprintf "%s = 0; %s = %s - %d;" x x x (-v)

(* [m]'s straight-line kernel with the immediate 3 of every [op] replaced
   by [c]: MiniC has no negative literal that stays an immediate *)
let set_imm (op : Ir.ibin) (c : int) (m : Ir.modul) : Ir.modul =
  let fn = find_fn m "kernel" in
  let c = Ir.IConst (Int64.of_int c) in
  let rw = function
    | Ir.Def (r, Ir.IBin (o, ty, x, Ir.IConst 3L)) when o = op ->
        Ir.Def (r, Ir.IBin (o, ty, x, c))
    | Ir.Def (r, Ir.IBin (o, ty, Ir.IConst 3L, x)) when o = op ->
        Ir.Def (r, Ir.IBin (o, ty, c, x))
    | i -> i
  in
  fn.Ir.fn_body <-
    List.map
      (function Ir.Block is -> Ir.Block (List.map rw is) | n -> n)
      fn.Ir.fn_body;
  m

let fits_63 (v : int64) : bool =
  v >= Int64.of_int min_int && v <= Int64.of_int max_int

(* on [fill], the VM deopts exactly when [deopt] says (once), and
   otherwise equals the tree walker bit for bit *)
let check_exact ~what ~deopt (m : Ir.modul) (fill : Ir_interp.fill) : unit =
  let prog = compiled m in
  let d0 = Counter.get Ir_vm.deopts in
  let pl = Ir_vm.copy_for prog (Ir_vm.image m.Ir.m_arrays fill) in
  let deopted =
    match Ir_vm.run_planes prog pl () with
    | _ -> false
    | exception Ir_interp.Trap _ -> false
    | exception Ir_vm.Deopt -> true
  in
  Alcotest.(check bool) (what ^ ": deopts") deopt deopted;
  Alcotest.(check int) (what ^ ": deopt count") (Bool.to_int deopt)
    (Counter.get Ir_vm.deopts - d0);
  if not deopt then
    match vm_raw m ~kernel:"kernel" fill with
    | None -> Alcotest.fail "vm declined the kernel"
    | Some v -> (
        match raw_diff (tree_raw m ~kernel:"kernel" fill) v with
        | None -> ()
        | Some why -> Alcotest.failf "%s: %s" what why)

let is_mul_imm c = function
  | Ir_vm.OIBin (_, Ir.Mul, Ir.I64, Ir_vm.AIslot _, Ir_vm.AIimm k)
  | Ir_vm.OIBin (_, Ir.Mul, Ir.I64, Ir_vm.AIimm k, Ir_vm.AIslot _) ->
      k = c
  | _ -> false

let is_add_splat = function
  | Ir_vm.OIBinV
      (_, Ir.Add, Ir.I64, Ir_vm.ViSlot _, Ir_vm.ViSplat (Ir_vm.AIslot _))
  | Ir_vm.OIBinV
      (_, Ir.Add, Ir.I64, Ir_vm.ViSplat (Ir_vm.AIslot _), Ir_vm.ViSlot _) ->
      true
  | _ -> false

let is_mul_splat = function
  | Ir_vm.OIBinV
      (_, Ir.Mul, Ir.I64, Ir_vm.ViSlot _, Ir_vm.ViSplat (Ir_vm.AIimm 3))
  | Ir_vm.OIBinV
      (_, Ir.Mul, Ir.I64, Ir_vm.ViSplat (Ir_vm.AIimm 3), Ir_vm.ViSlot _) ->
      true
  | _ -> false

let test_vm_mul_imm_edge () =
  (* x * c needs the 64th bit exactly when it leaves [min_int, max_int]:
     the specialized closure (c > 0) compares x with max_int / c and
     min_int / c, the generic one (c < 0) divides back; both must deopt
     on exactly those x, with the immediate on either side *)
  List.iter
    (fun c ->
      let hi = max_int / c and lo = min_int / c in
      List.iter
        (fun x ->
          List.iter
            (fun expr ->
              let what = Printf.sprintf "x=%d %s, c=%d" x expr c in
              let m =
                set_imm Ir.Mul c
                  (lower
                     (Printf.sprintf
                        "long a[1];\nint kernel() { long x; %s a[0] = %s; \
                         return 0; }"
                        (set_long "x" x) expr))
              in
              check_form ~what m (is_mul_imm c);
              let p = Int64.mul (Int64.of_int x) (Int64.of_int c) in
              check_exact ~what ~deopt:(not (fits_63 p)) m Ir_interp.Zeros;
              (* past the edge, the tree walker's product is the true one *)
              if not (fits_63 p) then
                match (tree_raw m ~kernel:"kernel" Ir_interp.Zeros).raw_mem with
                | [ ("a", Ir_interp.MI [| got |]) ] ->
                    Alcotest.(check int64) (what ^ ": tree product") p got
                | _ -> Alcotest.fail "unexpected memory")
            [ "x * 3"; "3 * x" ])
        [ hi - 1; hi; hi + 1; lo - 1; lo; lo + 1 ])
    [ 3; 2; 7; 1000003; -3; -7 ]

let test_vm_add_overflow_edge () =
  (* scalar slot + slot and slot + imm, each side of both edges *)
  List.iter
    (fun (x, y) ->
      let fits = fits_63 (Int64.add (Int64.of_int x) (Int64.of_int y)) in
      let src rhs =
        Printf.sprintf
          "long a[1];\nint kernel() { long x; long y; %s %s a[0] = %s; \
           return 0; }"
          (set_long "x" x) (set_long "y" y) rhs
      in
      let what = Printf.sprintf "%d + %d" x y in
      let m = lower (src "x + y") in
      check_form ~what m (function
        | Ir_vm.OIBin (_, Ir.Add, Ir.I64, Ir_vm.AIslot _, Ir_vm.AIslot _) ->
            true
        | _ -> false);
      check_exact ~what ~deopt:(not fits) m Ir_interp.Zeros;
      let m = set_imm Ir.Add y (lower (src "x + 3")) in
      check_form ~what m (function
        | Ir_vm.OIBin (_, Ir.Add, Ir.I64, Ir_vm.AIslot _, Ir_vm.AIimm k) ->
            k = y
        | _ -> false);
      check_exact ~what:(what ^ " (imm)") ~deopt:(not fits) m Ir_interp.Zeros)
    [ (max_int - 5, 5); (max_int - 4, 5); (min_int + 5, -5);
      (min_int + 4, -5); (max_int, 0); (-1, min_int + 1) ];
  (* vector + splat(slot) and vector * splat(imm), at 2 and 4 lanes: only
     the last lane (i = 63) crosses the edge *)
  let hi = max_int / 3 in
  List.iter
    (fun vf ->
      List.iter
        (fun (x, init, body, deopt, form) ->
          let what = Printf.sprintf "vf=%d %s, x=%d" vf body x in
          let m =
            transformed ~vf
              (Printf.sprintf
                 "long a[64]; long b[64];\n\
                  int kernel() { int i; long x; %s\n\
                  for (i = 0; i < 64; i++) b[i] = %s;\n\
                  for (i = 0; i < 64; i++) a[i] = %s;\n\
                  return 0; }"
                 (set_long "x" x) init body)
              "kernel"
          in
          check_form ~what m form;
          Alcotest.(check bool) (what ^ ": lane width") true
            (Array.mem vf (compiled m).Ir_vm.p_wveci);
          check_exact ~what ~deopt m Ir_interp.Zeros)
        [ (max_int - 63, "i", "b[i] + x", false, is_add_splat);
          (max_int - 62, "i", "b[i] + x", true, is_add_splat);
          (hi - 63, "x + i", "b[i] * 3", false, is_mul_splat);
          (hi - 62, "x + i", "b[i] * 3", true, is_mul_splat) ])
    [ 2; 4 ]

let test_vm_oob_specialized () =
  (* 16 iterations over a 10-cell array: the scalar loop traps at cell
     10; at vf=4 the third vector op writes lanes 8 and 9, then traps on
     lane 10 — same text and same partial memory on both engines *)
  List.iter
    (fun (what, decls, body, scalar_form, vector_form) ->
      let src =
        Printf.sprintf
          "%s\nint kernel() { int i; for (i = 0; i < 16; i++) %s return 0; }"
          decls body
      in
      List.iter
        (fun (label, m, form) ->
          let what = what ^ " " ^ label in
          check_form ~what m form;
          List.iter
            (fun fill ->
              match vm_raw m ~kernel:"kernel" fill with
              | None -> Alcotest.fail "vm declined the kernel"
              | Some v -> (
                  (match v.raw_result with
                  | Error msg ->
                      Alcotest.(check bool) (what ^ ": " ^ msg) true
                        (contains msg "out-of-bounds")
                  | Ok _ -> Alcotest.failf "%s: expected a trap" what);
                  match raw_diff (tree_raw m ~kernel:"kernel" fill) v with
                  | None -> ()
                  | Some why -> Alcotest.failf "%s: %s" what why))
            (Verify.Tv.inputs_of_key what))
        [ ("scalar", lower src, scalar_form);
          ("vf=4", transformed ~vf:4 src "kernel", vector_form) ])
    [ ( "f32 load", "float a[16]; float b[10];", "a[i] = b[i] * 2.0;",
        (function
        | Ir_vm.OLoadSF (_, Ir.F32, _, _, Ir_vm.AIslot _) -> true
        | _ -> false),
        function
        | Ir_vm.OLoadVF (_, Ir.F32, Ir_vm.MemF _, _, Ir_vm.AIslot _, 1, None)
          ->
            true
        | _ -> false );
      ( "f64 store", "double a[10]; double b[16];", "a[i] = b[i] * 2.0;",
        (function
        | Ir_vm.OStoreSF (Ir.F64, _, _, Ir_vm.AIslot _, Ir_vm.AFslot _) ->
            true
        | _ -> false),
        function
        | Ir_vm.OStoreVF
            ( Ir.F64, Ir_vm.MemF _, _, Ir_vm.AIslot _, 1, 4, Ir_vm.VfSlot _,
              None )
          ->
            true
        | _ -> false );
      ( "i32 load", "int a[16]; int b[10];", "a[i] = b[i] + 1;",
        (function
        | Ir_vm.OLoadSI (_, Ir.I32, _, _, Ir_vm.AIslot _) -> true
        | _ -> false),
        function
        | Ir_vm.OLoadVI (_, Ir.I32, Ir_vm.MemI _, _, Ir_vm.AIslot _, 1, None)
          ->
            true
        | _ -> false );
      ( "i64 store", "long a[10]; long b[16];", "a[i] = b[i] + 1;",
        (function
        | Ir_vm.OStoreSI (Ir.I64, _, _, Ir_vm.AIslot _, Ir_vm.AIslot _) ->
            true
        | _ -> false),
        function
        | Ir_vm.OStoreVI
            ( Ir.I64, Ir_vm.MemI _, _, Ir_vm.AIslot _, 1, 4, Ir_vm.ViSlot _,
              None )
          ->
            true
        | _ -> false ) ]

let test_vm_fuel_on_specialized_ops () =
  (* every budget from 1 to one past the run: the budget runs out on each
     op of the loop in turn (specialized scalar ops, vector ops, loads
     and stores), and both engines must stop on the same instruction with
     the same partial memory, or finish with the same fuel *)
  let src =
    "float a[16]; float b[16]; long c[16];\n\
     int kernel() { int i; long x; x = 5;\n\
     for (i = 0; i < 16; i++) { a[i] = b[i] * 2.0 + 1.0; c[i] = x * 3 + i; }\n\
     return 0; }"
  in
  List.iter
    (fun (label, m, form) ->
      check_form ~what:label m form;
      let fill = Ir_interp.Hashed 5 in
      let full =
        match (tree_raw m ~kernel:"kernel" fill).raw_steps with
        | Some n -> n
        | None -> Alcotest.failf "%s: the tree walker trapped" label
      in
      for budget = 1 to full + 1 do
        match vm_raw ~max_steps:budget m ~kernel:"kernel" fill with
        | None -> Alcotest.fail "vm declined the kernel"
        | Some v -> (
            let exhausted = v.raw_result = Error "step budget exceeded" in
            Alcotest.(check bool)
              (Printf.sprintf "%s: budget %d of %d exhausted" label budget full)
              (budget < full) exhausted;
            match
              raw_diff (tree_raw ~max_steps:budget m ~kernel:"kernel" fill) v
            with
            | None -> ()
            | Some why -> Alcotest.failf "%s, budget %d: %s" label budget why)
      done)
    [ ( "scalar", lower src,
        function
        | Ir_vm.OIBin (_, Ir.Mul, Ir.I64, Ir_vm.AIslot _, Ir_vm.AIimm 3) -> true
        | _ -> false );
      ( "vf=4", transformed ~vf:4 src "kernel",
        function
        | Ir_vm.OLoadVF (_, Ir.F32, Ir_vm.MemF _, _, Ir_vm.AIslot _, 1, None)
          ->
            true
        | _ -> false ) ]

let test_vm_splat_widths () =
  (* a scalar splatted over 2 and 4 lanes, int and float, on every input *)
  let src =
    "long a[64]; long b[64]; float f[64]; float g[64];\n\
     int kernel() { int i; long x; float y; x = 7; y = 1.5;\n\
     for (i = 0; i < 64; i++) a[i] = b[i] + x;\n\
     for (i = 0; i < 64; i++) f[i] = g[i] * y + y;\n\
     for (i = 0; i < 64; i++) a[i] = a[i] * 3;\n\
     return 0; }"
  in
  List.iter
    (fun vf ->
      let what = Printf.sprintf "splat at vf=%d" vf in
      let m = transformed ~vf src "kernel" in
      check_form ~what m is_add_splat;
      check_form ~what m is_mul_splat;
      let prog = compiled m in
      Alcotest.(check bool) (what ^ ": int lanes") true
        (Array.mem vf prog.Ir_vm.p_wveci);
      Alcotest.(check bool) (what ^ ": float lanes") true
        (Array.mem vf prog.Ir_vm.p_wvecf);
      List.iter
        (fun fill ->
          match vm_raw m ~kernel:"kernel" fill with
          | None -> Alcotest.fail "vm declined the kernel"
          | Some v -> (
              match raw_diff (tree_raw m ~kernel:"kernel" fill) v with
              | None -> ()
              | Some why ->
                  Alcotest.failf "%s on %s: %s" what
                    (Verify.Tv.input_name fill) why))
        (Verify.Tv.inputs_of_key what))
    [ 2; 4 ]

let test_vm_long_loop () =
  (* 10^6 iterations, each a chain of closures: a successor call out of
     tail position grows the stack per step, which the CI differential
     gate's 8 MB stack limit (OCAMLRUNPARAM=l=1M) turns into a failure *)
  let m =
    lower
      "long a[1];\n\
       int kernel() { int i; long s; s = 0;\n\
       for (i = 0; i < 1000000; i++) s = s + i; a[0] = s; return 0; }"
  in
  match vm_raw m ~kernel:"kernel" Ir_interp.Zeros with
  | None -> Alcotest.fail "vm declined the kernel"
  | Some v -> (
      Alcotest.(check bool) "at least 10^6 steps" true
        (match v.raw_steps with Some n -> n >= 1_000_000 | None -> false);
      Alcotest.(check bool) "the sum" true
        (v.raw_mem = [ ("a", Ir_interp.MI [| 499999500000L |]) ]);
      match raw_diff (tree_raw m ~kernel:"kernel" Ir_interp.Zeros) v with
      | None -> ()
      | Some why -> Alcotest.failf "engines diverged: %s" why)

let test_vm_wide_literals () =
  (* a decimal literal outside int's range is a long, as in C, so its
     negation is a 64-bit subtraction: both engines keep all 64 bits *)
  List.iter
    (fun (lit, want) ->
      let m =
        lower
          (Printf.sprintf
             "long a[1];\n\
              int kernel() { long x; x = %s; a[0] = x; return 0; }"
             lit)
      in
      let cell what (r : raw) =
        match (r.raw_result, r.raw_mem) with
        | Ok _, [ ("a", Ir_interp.MI [| x |]) ] -> x
        | _ -> Alcotest.failf "%s: x = %s did not complete" what lit
      in
      Alcotest.(check int64) ("tree walker: x = " ^ lit) want
        (cell "tree walker" (tree_raw m ~kernel:"kernel" Ir_interp.Zeros));
      match vm_raw m ~kernel:"kernel" Ir_interp.Zeros with
      | None -> Alcotest.fail "vm declined the kernel"
      | Some v -> Alcotest.(check int64) ("vm: x = " ^ lit) want (cell "vm" v))
    [ ("-1537228672809129301", -1537228672809129301L);
      ("1537228672809129301", 1537228672809129301L) ]

(* ------------------------------------------------------------------ *)
(* Native planes: input images, plane runs, counterexamples             *)
(* ------------------------------------------------------------------ *)

let all_types_src =
  "char c[37]; short s[19]; int n[64]; long l[33]; float f[50]; \
   double d[71];\n\
   int kernel() { return 0; }"

let test_planes_image_is_the_fill () =
  let m = lower all_types_src in
  let prog =
    match Ir_vm.compile m ~kernel:"kernel" with
    | Some prog -> prog
    | None -> Alcotest.fail "vm declined a kernel that returns 0"
  in
  let image fill = boxed_of_planes prog (Ir_vm.image m.Ir.m_arrays fill) in
  Alcotest.(check (list string)) "one array per element type"
    [ "i8"; "i16"; "i32"; "i64"; "f32"; "f64" ]
    (List.map
       (fun a -> Ir.scalar_ty_to_string a.Ir.arr_elem)
       m.Ir.m_arrays);
  List.iter
    (fun fill ->
      let what = Verify.Tv.input_name fill in
      let st = Ir_interp.init_state ~fill m in
      let img_mem = image fill and st_mem = sorted_mem st in
      Alcotest.(check (list string)) (what ^ ": same arrays")
        (List.map fst st_mem) (List.map fst img_mem);
      List.iter2
        (fun (name, want) (_, got) ->
          if not (mem_bits_equal want got) then
            Alcotest.failf "%s: image of %s differs from the interpreter's \
                            fill" what name)
        st_mem img_mem)
    (Verify.Tv.inputs_of_key "planes-image");
  (* the ladder is not degenerate: the ramp is signed, the hashed fills
     reach past the thresholds the zeros and the ramp never cross *)
  let ints fill =
    match List.assoc "n" (image fill) with
    | Ir_interp.MI cells -> cells
    | Ir_interp.MF _ -> Alcotest.fail "n is an int array"
  in
  Alcotest.(check bool) "ramp is signed" true
    (Array.exists (fun x -> x < 0L) (ints Verify.Tv.Ramp));
  Alcotest.(check bool) "hashed fill exceeds 100" true
    (Array.exists (fun x -> x > 100L) (ints (Verify.Tv.Hashed 7)))

let test_planes_run_matches_tree () =
  (* the differential corpus, scalar and under four plans, plus a trap
     and a fuel exhaustion: every observable of a plane run equals the
     tree walker's, on every input of the ladder *)
  let programs = Dataset.Loopgen.generate ~seed:101 12 in
  let modules =
    Array.to_list programs
    |> List.concat_map (fun p ->
           let kernel = p.Dataset.Program.p_kernel in
           let bindings = p.Dataset.Program.p_bindings in
           let scalar =
             Ir_lower.lower_program ~bindings
               (Minic.Parser.parse_string p.Dataset.Program.p_source)
           in
           (p.Dataset.Program.p_name, scalar, kernel, None)
           :: List.map
                (fun (vf, if_) ->
                  ( Printf.sprintf "%s vf=%d if=%d" p.Dataset.Program.p_name
                      vf if_,
                    (Neurovec.Pipeline.run_with_pragma p ~vf ~if_)
                      .Neurovec.Pipeline.modul,
                    kernel, None ))
                [ (1, 1); (4, 2); (8, 1); (16, 4) ])
  in
  let oob =
    lower
      "int a[8];\nint kernel() { int i; for (i=0;i<16;i++) a[i] = i + 1; \
       return 0; }"
  in
  let modules =
    modules
    @ [ ("out-of-bounds store", oob, "kernel", None);
        ("fuel exhaustion", lower copy_src, "kernel", Some 50) ]
  in
  let compiled = ref 0 and traps = ref 0 in
  List.iter
    (fun (what, m, kernel, max_steps) ->
      List.iter
        (fun fill ->
          match vm_raw ?max_steps m ~kernel fill with
          | None -> ()
          | Some v -> (
              incr compiled;
              if Result.is_error v.raw_result then incr traps;
              match raw_diff (tree_raw ?max_steps m ~kernel fill) v with
              | None -> ()
              | Some why ->
                  Alcotest.failf "%s on %s: %s" what
                    (Verify.Tv.input_name fill) why))
        (Verify.Tv.inputs_of_key what))
    modules;
  Alcotest.(check int) "the VM ran every module on every input"
    (4 * List.length modules) !compiled;
  Alcotest.(check int) "both trapping modules trapped on every input" 8
    !traps

let verdict_text ~engine ?(sabotage = false) ~key scalar transformed =
  Memo.clear_all ();
  Verify.Tv.set_engine engine;
  Fun.protect
    ~finally:(fun () -> Verify.Tv.set_engine Verify.Tv.Vm)
    (fun () ->
      match
        Verify.Tv.verify ~sabotage ~key ~scalar ~scalar_key:(key ^ "-s")
          ~kernel:"kernel" transformed
      with
      | Verify.Tv.Equivalent -> "equivalent"
      | Verify.Tv.Refuted cx -> Verify.Tv.render cx)

(* both engines print [expect]; on the VM, the run took [deopts] deopts *)
let check_verdict ~what ~expect ~deopts ?sabotage ~key scalar transformed =
  let d0 = Counter.get Ir_vm.deopts and s0 = Counter.get Ir_vm.vm_steps in
  Alcotest.(check string) (what ^ " on the vm") expect
    (verdict_text ~engine:Verify.Tv.Vm ?sabotage ~key scalar transformed);
  Alcotest.(check bool) (what ^ ": the vm ran") true
    (Counter.get Ir_vm.vm_steps > s0);
  Alcotest.(check int) (what ^ ": vm deopts") deopts
    (Counter.get Ir_vm.deopts - d0);
  Alcotest.(check string) (what ^ " on the tree walker") expect
    (verdict_text ~engine:Verify.Tv.Interp ?sabotage ~key scalar transformed)

let test_planes_hashed_only_refutation () =
  (* wrong only where b[i] > 100: the zeros and the ramp never get there,
     the first hashed fill does *)
  let src body =
    lower
      ("int a[64]; int b[64];\n\
        int kernel() { int i; for (i=0;i<64;i++) " ^ body ^ " return 0; }")
  in
  check_verdict ~what:"cells > 100" ~deopts:0 ~key:"planes-hashed"
    ~expect:
      "input=hashed(seed=289569198) cell=a[0] scalar=149 vector=150"
    (src "a[i] = b[i] + 1;")
    (src "{ if (b[i] > 100) a[i] = b[i] + 2; else a[i] = b[i] + 1; }")

let test_planes_sabotage_max_int () =
  (* sabotage adds one in Int64: a native max_int cell must not wrap *)
  let m =
    lower
      "long a[1];\nint kernel() { a[0] = 4611686018427387903; return 0; }"
  in
  check_verdict ~what:"sabotaged max_int" ~deopts:0 ~sabotage:true
    ~key:"planes-maxint"
    ~expect:
      "input=zeros cell=a[0] scalar=4611686018427387903 \
       vector=4611686018427387904"
    m m

let test_planes_deopt_reruns_on_tree () =
  (* x + i needs the 64th bit at i = 1 (scalar) and at once (x + i + 1):
     both sides abandon their planes mid-run and tree-walk a fresh state *)
  let src e =
    lower
      (Printf.sprintf
         "long a[8];\n\
          int kernel() { int i; long x; x = 4611686018427387903;\n\
          for (i=0;i<8;i++) a[i] = %s; return 0; }"
         e)
  in
  check_verdict ~what:"I64 overflow" ~deopts:2 ~key:"planes-deopt"
    ~expect:
      "input=zeros cell=a[0] scalar=4611686018427387903 \
       vector=4611686018427387904"
    (src "x + i") (src "x + i + 1");
  (* one side deopts, the other keeps its planes: boxed cells compare
     against native ones in Int64, either way round *)
  check_verdict ~what:"boxed scalar, native vector" ~deopts:1
    ~key:"planes-deopt"
    ~expect:
      "input=zeros cell=a[0] scalar=4611686018427387903 \
       vector=4611686018427387895"
    (src "x + i") (src "x - 8 + i");
  check_verdict ~what:"native scalar, boxed vector" ~deopts:1
    ~key:"planes-deopt"
    ~expect:
      "input=zeros cell=a[0] scalar=4611686018427387895 \
       vector=4611686018427387903"
    (src "x - 8 + i") (src "x + i")

let suite =
  [
    ( "verify.tv",
      [
        Alcotest.test_case "input ladder deterministic" `Quick
          test_tv_inputs_deterministic;
        Alcotest.test_case "clean transform equivalent" `Quick
          test_tv_equivalent_on_clean_transform;
        Alcotest.test_case "wrong code refuted on zeros" `Quick
          test_tv_refutes_wrong_code;
        Alcotest.test_case "first diverging cell named" `Quick
          test_tv_refutes_divergent_cell;
        Alcotest.test_case "sabotage refutes deterministically" `Quick
          test_tv_sabotage_refutes;
        Alcotest.test_case "transformed-only trap refutes" `Quick
          test_tv_trap_asymmetry;
        Alcotest.test_case "float reduction within tolerance" `Quick
          test_tv_float_reduction_tolerated;
        Alcotest.test_case
          "second verdict reuses all four scalar runs and their images"
          `Quick test_tv_second_plan_reuses_scalar_runs;
        Alcotest.test_case "oversized arrays refused before allocation" `Quick
          test_tv_refuses_oversized;
      ] );
    ( "verify.taxonomy",
      [
        Alcotest.test_case "classify maps to Miscompiled" `Quick
          test_classify_miscompile;
        Alcotest.test_case "never retried as transient" `Quick
          test_miscompile_never_retried;
      ] );
    ( "verify.sweep",
      [
        Alcotest.test_case "clean corpus: zero refutations" `Slow
          test_verified_sweep_clean_corpus;
        Alcotest.test_case "verified sweep bit-identical across jobs" `Slow
          test_verified_sweep_jobs_identity;
        Alcotest.test_case "miscompile knob caught with counterexample" `Slow
          test_miscompile_knob_caught;
        Alcotest.test_case "partial knob + transients, jobs identity" `Slow
          test_partial_miscompile_jobs_identity_under_faults;
        Alcotest.test_case "Miscompiled entry keeps its evidence" `Slow
          test_miscompiled_entry_and_refutation_accessor;
      ] );
    ( "verify.journal",
      [
        Alcotest.test_case "V records replay" `Slow
          test_journal_v_records_replay;
        Alcotest.test_case "corruption matrix" `Slow
          test_journal_corruption_matrix;
      ] );
    ( "verify.fuzz",
      [
        Alcotest.test_case "generator deterministic" `Quick
          test_fuzz_generator_deterministic;
        Alcotest.test_case "legality hunt finds nothing" `Slow
          test_fuzz_hunt_finds_nothing;
        Alcotest.test_case "deadline only truncates" `Quick
          test_fuzz_deadline_truncates;
        QCheck_alcotest.to_alcotest
          (Verify.Loopfuzz.prop_legality_accepted_plans_verify ~count:25 ());
      ] );
    ( "verify.vm",
      [
        QCheck_alcotest.to_alcotest prop_vm_fuzz_families_bit_identical;
        Alcotest.test_case "trap parity (message + partial memory)" `Quick
          test_vm_trap_parity;
        Alcotest.test_case "fuel parity (budget exhaustion)" `Quick
          test_vm_fuel_parity;
        Alcotest.test_case "code cache: FIFO eviction + cached fallback"
          `Quick test_vm_cache_fifo_and_none_caching;
        Alcotest.test_case "code cache thrash: jobs 1 = jobs 4" `Slow
          test_vm_cache_thrash_jobs_identity;
        Alcotest.test_case "engine verdicts byte-identical" `Quick
          test_vm_engine_verdicts_identical;
        Alcotest.test_case "i64 multiply by an immediate: deopt edge" `Quick
          test_vm_mul_imm_edge;
        Alcotest.test_case "i64 add overflow: deopt edge, scalar and lanes"
          `Quick test_vm_add_overflow_edge;
        Alcotest.test_case "out-of-bounds specialized loads and stores"
          `Quick test_vm_oob_specialized;
        Alcotest.test_case "fuel runs out on every specialized op" `Quick
          test_vm_fuel_on_specialized_ops;
        Alcotest.test_case "splat operands at 2 and 4 lanes" `Quick
          test_vm_splat_widths;
        Alcotest.test_case "10^6-iteration loop, constant stack" `Quick
          test_vm_long_loop;
        Alcotest.test_case "64-bit literals keep their bits" `Quick
          test_vm_wide_literals;
      ] );
    ( "verify.planes",
      [
        Alcotest.test_case "images are the interpreter's fills" `Quick
          test_planes_image_is_the_fill;
        Alcotest.test_case "plane runs equal the tree walker" `Quick
          test_planes_run_matches_tree;
        Alcotest.test_case "hashed-only divergence refuted" `Quick
          test_planes_hashed_only_refutation;
        Alcotest.test_case "sabotaged max_int renders in Int64" `Quick
          test_planes_sabotage_max_int;
        Alcotest.test_case "mid-run deopt reruns on the tree walker" `Quick
          test_planes_deopt_reruns_on_tree;
      ] );
  ]
