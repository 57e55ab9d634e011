(* The [Memo] content-cache primitive, and the bound it puts on every
   content table in the process.

   - Table: first commit wins under a race, raising computes are never
     cached, FIFO eviction is exact at the cap, and the shard selector
     spreads digest keys evenly.
   - Bounded: a verify-on daemon fed many more distinct programs than
     any cap, and a capped sweep, keep every table at or below its cap
     and answer byte-identically to an uncapped run. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* One table                                                            *)
(* ------------------------------------------------------------------ *)

let test_race_keeps_first_commit () =
  let t = Memo.create ~name:"test-race" ~cap:8 in
  let entered = Atomic.make 0 in
  let compute () =
    (* hold every racer inside [compute] until all four have missed, so
       all four try to commit *)
    Atomic.incr entered;
    while Atomic.get entered < 4 do
      Domain.cpu_relax ()
    done;
    ref 0
  in
  let got =
    List.map Domain.join
      (List.init 4 (fun _ ->
           Domain.spawn (fun () -> Memo.find_or_add t "k" compute)))
  in
  let first = List.hd got in
  List.iteri
    (fun i v ->
      check Alcotest.bool
        (Printf.sprintf "racer %d got the first commit" i)
        true (v == first))
    got;
  let s = Memo.stats t in
  check Alcotest.int "four misses" 4 s.Memo.misses;
  check Alcotest.int "one entry" 1 s.Memo.size;
  check Alcotest.bool "a later lookup hits the committed value" true
    (Memo.find_or_add t "k" (fun () -> ref 1) == first)

let test_raising_compute_not_cached () =
  let t = Memo.create ~name:"test-raise" ~cap:8 in
  let calls = ref 0 in
  for _ = 1 to 3 do
    match
      Memo.find_or_add t "k" (fun () ->
          incr calls;
          failwith "boom")
    with
    | _ -> Alcotest.fail "expected the compute's exception"
    | exception Failure msg -> check Alcotest.string "re-raised" "boom" msg
  done;
  check Alcotest.int "computed on every call" 3 !calls;
  check Alcotest.int "nothing cached" 0 (Memo.stats t).Memo.size;
  check Alcotest.int "a later success computes" 7
    (Memo.find_or_add t "k" (fun () -> 7));
  check Alcotest.int "and is cached" 7 (Memo.find_or_add t "k" (fun () -> 8))

let test_fifo_exact_at_cap () =
  let t = Memo.create ~name:"test-fifo" ~cap:3 in
  let computed = ref [] in
  let get k =
    ignore
      (Memo.find_or_add t k (fun () ->
           computed := k :: !computed;
           k))
  in
  let recomputes keys =
    computed := [];
    List.iter get keys;
    List.rev !computed
  in
  List.iter get [ "k1"; "k2"; "k3" ];
  check Alcotest.int "full, nothing evicted" 0 (Memo.stats t).Memo.evictions;
  List.iter get [ "k4"; "k5" ];
  let s = Memo.stats t in
  check Alcotest.int "size stays at the cap" 3 s.Memo.size;
  check Alcotest.int "one eviction per insert past the cap" 2 s.Memo.evictions;
  check (Alcotest.list Alcotest.string) "the three newest are cached" []
    (recomputes [ "k3"; "k4"; "k5" ]);
  (* hits do not refresh: re-adding k1 evicts k3, the oldest insert *)
  check (Alcotest.list Alcotest.string) "the oldest went first" [ "k1" ]
    (recomputes [ "k1" ]);
  check (Alcotest.list Alcotest.string) "k3 went, k4 and k5 stayed" [ "k3" ]
    (recomputes [ "k4"; "k5"; "k3" ]);
  Memo.set_capacity "test-fifo" 1;
  let s = Memo.stats t in
  check Alcotest.int "a lower cap evicts at once" 1 s.Memo.size;
  check (Alcotest.list Alcotest.string) "down to the newest" []
    (recomputes [ "k3" ]);
  Memo.set_capacity "test-fifo" 0;
  let misses = (Memo.stats t).Memo.misses in
  check Alcotest.int "cap 0 empties the table" 0 (Memo.stats t).Memo.size;
  check (Alcotest.list Alcotest.string) "cap 0 computes every lookup"
    [ "k3"; "k3"; "k6" ]
    (recomputes [ "k3"; "k3"; "k6" ]);
  let s = Memo.stats t in
  check Alcotest.int "and counts each as a miss" (misses + 3) s.Memo.misses;
  check Alcotest.int "size stays 0" 0 s.Memo.size

let test_shard_spread () =
  let n = 16384 in
  let spread what keys =
    let counts = Array.make Memo.n_shards 0 in
    List.iter
      (fun k ->
        let i = Memo.shard_index k in
        counts.(i) <- counts.(i) + 1)
      keys;
    let mean = n / Memo.n_shards in
    let fullest = Array.fold_left max 0 counts in
    check Alcotest.bool
      (Printf.sprintf "%s: fullest shard %d <= 2 x mean %d" what fullest mean)
      true
      (fullest <= 2 * mean)
  in
  (* hex digests key the front-end, pipeline, VM and validator tables;
     raw digest bytes prefix the timing memo's keys *)
  spread "hex digests"
    (List.init n (fun i -> Digest.to_hex (Digest.string (string_of_int i))));
  spread "raw digests"
    (List.init n (fun i -> Digest.string (string_of_int i) ^ "|loop body"))

(* ------------------------------------------------------------------ *)
(* Every table stays bounded                                            *)
(* ------------------------------------------------------------------ *)

let table_names =
  [ "artifact"; "prevec"; "scalar-ref"; "verdict"; "point"; "timing";
    "vm-code"; "tv-scalar" ]

let table (name : string) : Memo.stats =
  match List.find_opt (fun c -> c.Memo.name = name) (Memo.all ()) with
  | Some c -> c
  | None -> Alcotest.failf "table %s is not registered" name

let serve_replies (programs : Dataset.Program.t array) : string array =
  Memo.clear_all ();
  let agent = Rl.Agent.create ~space:Rl.Spaces.Discrete (Nn.Rng.create 9) in
  let options =
    { Neurovec.Pipeline.default_options with Neurovec.Pipeline.verify = true }
  in
  let server = Serve.Server.create ~options agent in
  let replies =
    Array.map
      (fun p ->
        Serve.Protocol.encode_reply
          (Serve.Server.call server ~client:"bounded"
             ~name:p.Dataset.Program.p_name ~kernel:p.Dataset.Program.p_kernel
             ~source:p.Dataset.Program.p_source))
      programs
  in
  Serve.Server.stop server;
  replies

let sweep_labels (programs : Dataset.Program.t array) : string array =
  Memo.clear_all ();
  Array.map
    (function
      | None -> "quarantined"
      | Some (a, r) ->
          Printf.sprintf "%d %Lx" (Rl.Spaces.flat_of a) (Int64.bits_of_float r))
    (Neurovec.Reward.sweep_all (Neurovec.Reward.create programs))

let test_every_table_bounded () =
  let cap = 4 in
  let serve_corpus = Dataset.Loopgen.generate ~seed:71 24 in
  let sweep_corpus = Dataset.Loopgen.generate ~seed:72 6 in
  let uncapped = (serve_replies serve_corpus, sweep_labels sweep_corpus) in
  let saved = List.map (fun n -> (n, (table n).Memo.cap)) table_names in
  let within_caps phase =
    List.iter
      (fun n ->
        let s = table n in
        check Alcotest.bool
          (Printf.sprintf "%s: %s holds %d <= %d" phase n s.Memo.size cap)
          true (s.Memo.size <= cap))
      table_names
  in
  let capped =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (n, c) -> Memo.set_capacity n c) saved;
        Memo.clear_all ())
      (fun () ->
        List.iter (fun n -> Memo.set_capacity n cap) table_names;
        Counter.reset_all ();
        let replies = serve_replies serve_corpus in
        within_caps "serve";
        let labels = sweep_labels sweep_corpus in
        within_caps "sweep";
        List.iter
          (fun n ->
            check Alcotest.bool (n ^ " evicted") true
              ((table n).Memo.evictions > 0))
          table_names;
        (replies, labels))
  in
  check (Alcotest.array Alcotest.string) "serve replies byte-identical"
    (fst uncapped) (fst capped);
  check (Alcotest.array Alcotest.string) "sweep labels identical"
    (snd uncapped) (snd capped)

let suite =
  [
    ( "memo.table",
      [
        Alcotest.test_case "racing domains share the first commit" `Quick
          test_race_keeps_first_commit;
        Alcotest.test_case "raising compute is not cached" `Quick
          test_raising_compute_not_cached;
        Alcotest.test_case "FIFO eviction exact at the cap" `Quick
          test_fifo_exact_at_cap;
        Alcotest.test_case "digest keys spread evenly" `Quick
          test_shard_spread;
      ] );
    ( "memo.bounded",
      [
        Alcotest.test_case "every table bounded, answers unchanged" `Slow
          test_every_table_bounded;
      ] );
  ]
