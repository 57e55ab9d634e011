(* Run ALCOTEST_QUICK_ONLY=1 to skip the slow end-to-end suites.
   [test_main.exe knob-race] is the child process of the
   supervisor.knobs test. *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "knob-race" then
    Test_supervisor.knob_race_child ();
  Alcotest.run "neurovectorizer"
    (Test_minic.suite @ Test_ir.suite @ Test_analysis.suite
   @ Test_vectorizer.suite @ Test_polly.suite @ Test_machine.suite
   @ Test_nn.suite @ Test_embedding.suite @ Test_rl.suite @ Test_agents.suite
   @ Test_dataset.suite @ Test_core.suite @ Test_faults.suite
   @ Test_differential.suite @ Test_parallel.suite @ Test_golden.suite
   @ Test_supervisor.suite @ Test_serve.suite @ Test_verify.suite
   @ Test_selfheal.suite @ Test_memo.suite)
