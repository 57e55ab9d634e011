(* The counter registry: unique names, exact sums and high-water marks
   under racing domains, and one reset that reaches every owner. *)

let check = Alcotest.check

let test_duplicate_name_rejected () =
  ignore (Counter.make "test.duplicate");
  Alcotest.check_raises "second make of one name"
    (Invalid_argument "Counter.make: duplicate counter test.duplicate")
    (fun () -> ignore (Counter.make "test.duplicate"))

(* run [body k] on domains k = 0..3, released together so they race *)
let on_four_domains (body : int -> unit) : unit =
  let ready = Atomic.make 0 in
  List.iter Domain.join
    (List.init 4 (fun k ->
         Domain.spawn (fun () ->
             Atomic.incr ready;
             while Atomic.get ready < 4 do Domain.cpu_relax () done;
             body k)))

let test_racing_sums_exact () =
  let incrs = Counter.make "test.racing-incr" in
  let adds = Counter.make "test.racing-add" in
  on_four_domains (fun k ->
      for _ = 1 to 10_000 do
        Counter.incr incrs;
        Counter.add adds (k + 1)
      done);
  check Alcotest.int "incr" 40_000 (Counter.get incrs);
  check Alcotest.int "add" (10_000 * (1 + 2 + 3 + 4)) (Counter.get adds)

let test_racing_max_keeps_maximum () =
  let hw = Counter.make "test.racing-max" in
  let peak = 1_000_000_000 in
  (* domain k offers k, k + 4, ... rising, so every offer raises the mark
     while the others race it; halfway, domain 0 offers the peak, which
     no later offer may lower *)
  on_four_domains (fun k ->
      for i = 0 to 99_999 do
        if k = 0 && i = 50_000 then Counter.max_to hw peak;
        Counter.max_to hw (k + (4 * i))
      done);
  check Alcotest.int "largest value offered" peak (Counter.get hw);
  Counter.max_to hw 7;
  check Alcotest.int "a smaller offer keeps the mark" peak (Counter.get hw)

let test_reset_reaches_every_owner () =
  let table = Memo.create ~name:"test-counter-owner" ~cap:4 in
  ignore (Memo.find_or_add table "key" (fun () -> 1));
  Counter.incr Neurovec.Stats.pipeline_runs;
  Counter.incr Ir_vm.vm_steps;
  Counter.incr Verify.Tv.tree_steps;
  Counter.incr Rl.Sentinel.trips;
  let path = Filename.temp_file "counter" ".ckpt" in
  close_out (open_out (path ^ ".tmp"));
  check Alcotest.bool "stale temp file swept" true (Fsio.sweep_tmp path);
  Sys.remove path;
  let owners () =
    [ ("Stats", Counter.get Neurovec.Stats.pipeline_runs);
      ("Memo", (Memo.stats table).Memo.misses);
      ("Ir_vm", Counter.get Ir_vm.vm_steps);
      ("Verify.Tv", Counter.get Verify.Tv.tree_steps);
      ("Rl.Sentinel", Counter.get Rl.Sentinel.trips);
      ("Fsio", Counter.get Fsio.tmp_swept) ]
  in
  List.iter
    (fun (owner, n) -> check Alcotest.bool (owner ^ " counted") true (n > 0))
    (owners ());
  Neurovec.Stats.reset ();
  List.iter
    (fun (owner, n) -> check Alcotest.int (owner ^ " zeroed") 0 n)
    (owners ())

let suite =
  [
    ( "counter.registry",
      [
        Alcotest.test_case "make rejects a duplicate name" `Quick
          test_duplicate_name_rejected;
        Alcotest.test_case "racing incr and add sum exactly" `Quick
          test_racing_sums_exact;
        Alcotest.test_case "racing max_to keeps the maximum" `Quick
          test_racing_max_keeps_maximum;
        Alcotest.test_case "one Stats.reset zeroes every owner" `Quick
          test_reset_reaches_every_owner;
      ] );
  ]
