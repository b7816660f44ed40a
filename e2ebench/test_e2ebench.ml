(* Tests of the benchmark's own helpers: the tail-percentile rule,
   failure accounting, and the determinism of the seeded streams. *)

module S = E2ebench_core.Stats
module L = E2ebench_core.Loadgen

let pct = Alcotest.(option (float 0.))

let test_tail_rule () =
  (* the highest percentile with at least ten samples beyond it *)
  Alcotest.(check pct) "19 samples: no percentile" None (S.tail_percentile 19);
  Alcotest.(check pct) "20 samples: median" (Some 50.) (S.tail_percentile 20);
  Alcotest.(check pct) "100 samples: p90" (Some 90.) (S.tail_percentile 100);
  Alcotest.(check pct) "200 samples: p95" (Some 95.) (S.tail_percentile 200);
  Alcotest.(check pct) "999 samples: p95" (Some 95.) (S.tail_percentile 999);
  Alcotest.(check pct) "1000 samples: p99" (Some 99.) (S.tail_percentile 1000);
  Alcotest.(check pct) "10000 samples: p99.9" (Some 99.9) (S.tail_percentile 10_000);
  Alcotest.(check pct) "10^5 samples: p99.99" (Some 99.99) (S.tail_percentile 100_000);
  Alcotest.(check int) "beyond p99 of 1000" 10 (S.beyond ~n:1000 99.);
  Alcotest.(check int) "beyond p99 of 999" 9 (S.beyond ~n:999 99.)

let test_percentile_refuses () =
  let s = S.samples () in
  for i = 1 to 999 do
    S.add s (float_of_int i)
  done;
  Alcotest.check_raises "p99 of 999 samples"
    (Failure "99 th percentile needs more than 999 samples") (fun () ->
      ignore (S.percentile s 99.));
  S.add s 1000.;
  Alcotest.(check (float 1e-9)) "p99 of 1..1000" 990.01 (S.percentile s 99.)

let test_quantiles () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-12)) "median interpolates" 2.5 (S.quantile_sorted a 0.5);
  Alcotest.(check (float 1e-12)) "min" 1. (S.quantile_sorted a 0.);
  Alcotest.(check (float 1e-12)) "max" 4. (S.quantile_sorted a 1.);
  let s = S.samples () in
  List.iter (S.add s) [ 5.; 1.; 3. ];
  let sm = S.summarize s in
  Alcotest.(check int) "n" 3 sm.S.n;
  Alcotest.(check (float 0.)) "p50" 3. sm.S.p50;
  Alcotest.(check pct) "no tail for 3 samples" None sm.S.tail_p;
  (* the buffer grows past its initial capacity *)
  let big = S.samples () in
  for i = 1 to 5000 do
    S.add big (float_of_int i)
  done;
  Alcotest.(check int) "grown" 5000 (S.count big);
  Alcotest.(check (float 1e-9)) "sum" 12_502_500. (S.sum big)

let test_failed_frac () =
  let t = S.tally () in
  Alcotest.(check (float 0.)) "nothing attempted" 0. (S.failed_frac t);
  List.iter (S.record t) [ S.Ok; S.Ok; S.Failed; S.Refused; S.Ok; S.Ok; S.Ok; S.Ok ];
  Alcotest.(check int) "attempted" 8 t.S.attempted;
  Alcotest.(check int) "failed plus refused" 2 (S.not_ok t);
  Alcotest.(check (float 1e-12)) "refusals count as failures" 0.25 (S.failed_frac t)

let draws seed n =
  let r = L.rng seed in
  let z = L.zipf ~n:100 ~s:1.0 in
  List.init n (fun _ -> L.zipf_draw z r)

let test_zipf () =
  Alcotest.(check (list int)) "same seed, same draws" (draws 7 1000) (draws 7 1000);
  Alcotest.(check bool) "another seed, other draws" true (draws 7 1000 <> draws 8 1000);
  let d = draws 3 20_000 in
  let count k = List.length (List.filter (( = ) k) d) in
  Alcotest.(check bool) "rank 0 is hottest" true (count 0 > count 1 && count 1 > count 9);
  Alcotest.(check bool) "every draw in range" true (List.for_all (fun k -> k >= 0 && k < 100) d)

let logins = Array.init 300 (Printf.sprintf "user%03d")
let lists = Array.init 20 (Printf.sprintf "list%02d")

let ops seed n =
  let next = L.lookup_stream ~seed ~logins ~lists in
  List.init n (fun _ -> next ())

let test_lookup_stream () =
  Alcotest.(check bool) "same seed, same ops" true (ops 5 2000 = ops 5 2000);
  Alcotest.(check bool) "another seed, other ops" true (ops 5 2000 <> ops 6 2000);
  Alcotest.(check bool) "read-only" true
    (List.for_all (fun o -> o.L.kind = L.Read) (ops 5 2000))

let edits seed n =
  (* list00 starts with user000..user009 as members *)
  let is_member l u = l = "list00" && u < "user010" in
  let e = L.edit_stream ~seed ~hot:logins ~lists ~is_member in
  let l = List.init n (fun _ -> e.L.next ()) in
  (l @ L.drain e, is_member)

let test_edit_stream () =
  let a, is_member = edits 9 3000 in
  let b, _ = edits 9 3000 in
  Alcotest.(check bool) "same seed, same edits" true (a = b);
  Alcotest.(check bool) "another seed, other edits" true (a <> fst (edits 10 3000));
  (* every addition is of a non-member and is undone exactly once *)
  let live = Hashtbl.create 16 in
  List.iter
    (function
      | L.Add_member { list; login } ->
          Alcotest.(check bool) "adds a non-member" false (is_member list login);
          Alcotest.(check bool) "not already added" false (Hashtbl.mem live (list, login));
          Hashtbl.replace live (list, login) ()
      | L.Del_member { list; login } ->
          Alcotest.(check bool) "deletes what was added" true (Hashtbl.mem live (list, login));
          Hashtbl.remove live (list, login)
      | _ -> ())
    a;
  Alcotest.(check int) "memberships restored" 0 (Hashtbl.length live);
  let writes = List.filter (fun e -> (L.edit_op e).L.kind = L.Write) a in
  Alcotest.(check int) "every edit writes" (List.length a) (List.length writes);
  Alcotest.(check bool) "checks read" true
    (List.for_all (fun e -> (L.check_op e).L.kind = L.Read) a)

let test_probe_time () =
  let t = Alcotest.(check (float 1e-9)) in
  t "no segments" 0. (S.probe_time ~window:10 []);
  (* one window: 12 wall over a mean probe of 2 *)
  t "one window" 6. (S.probe_time ~window:10 [ (4, 1); (8, 3) ]);
  (* windows [10/2] and [10/4]: a slow stretch counts as less time *)
  t "two windows" 7.5 (S.probe_time ~window:10 [ (10, 2); (10, 4) ]);
  (* the short tail [3/4] joins the window before it: 13 wall over a
     mean probe of 3 *)
  t "tail joins" (13. /. 3.) (S.probe_time ~window:10 [ (10, 2); (3, 4) ]);
  t "scales with host speed" (S.probe_time ~window:10 [ (10, 2); (10, 4) ])
    (S.probe_time ~window:20 [ (20, 4); (20, 8) ])

let () =
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "percentile refuses thin tails" `Quick test_percentile_refuses;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "failed_frac accounting" `Quick test_failed_frac;
          Alcotest.test_case "host-speed-normalised time" `Quick test_probe_time;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "zipf determinism" `Quick test_zipf;
          Alcotest.test_case "lookup stream determinism" `Quick test_lookup_stream;
          Alcotest.test_case "edit stream determinism and pairing" `Quick test_edit_stream;
        ] );
    ]
