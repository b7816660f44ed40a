(* Sample summaries and failure accounting for the end-to-end benchmark.

   Pure helpers with no dependency on the system under test, so the
   reporting rules can be tested on their own (test_stats.ml). *)

(* A growable buffer of float samples (latencies in µs or ms). *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let sum s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

(* Linear interpolation between closest ranks (the default of numpy and
   of Python's [statistics.quantiles(method="inclusive")]). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* The percentile ladder a tail is reported on. *)
let ladder = [ 99.99; 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Samples strictly beyond the [p]th percentile of [n]: those ranked
   above ceil(n * p / 100). *)
let beyond ~n p =
  let rank = Float.ceil (float_of_int n *. p /. 100. -. 1e-9) in
  n - int_of_float rank

(* The highest percentile on the ladder with at least ten samples
   beyond it, or [None] when even the median has fewer. *)
let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) ladder

(* Whether [p] may be reported for [n] samples. *)
let reportable ~n p = beyond ~n p >= 10

type summary = {
  n : int;
  p50 : float;
  tail_p : float option;  (** The tail percentile reported, if any. *)
  tail : float;  (** Its value ([nan] when [tail_p] is [None]). *)
}

let summarize s =
  let a = to_sorted s in
  let n = Array.length a in
  let tail_p = tail_percentile n in
  {
    n;
    p50 = quantile_sorted a 0.5;
    tail_p;
    tail =
      (match tail_p with Some p -> quantile_sorted a (p /. 100.) | None -> nan);
  }

(* A named percentile, checked against the ten-beyond rule: the
   benchmark refuses to print a tail it has too few samples for. *)
let percentile s p =
  let n = count s in
  if not (reportable ~n p) then
    failwith
      (Printf.sprintf "%g th percentile needs more than %d samples" p n);
  quantile_sorted (to_sorted s) (p /. 100.)

(* Operations attempted against those that failed (the system returned
   an error or the check on its output did not hold) or were refused
   (the system declined the operation: a quarantined host, an access
   denial, a backed-off push). *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable refused : int;
}

let tally () = { attempted = 0; failed = 0; refused = 0 }

type outcome = Ok | Failed | Refused

let record t o =
  t.attempted <- t.attempted + 1;
  match o with
  | Ok -> ()
  | Failed -> t.failed <- t.failed + 1
  | Refused -> t.refused <- t.refused + 1

let not_ok t = t.failed + t.refused

let failed_frac t =
  if t.attempted = 0 then 0.
  else float_of_int (not_ok t) /. float_of_int t.attempted

(* Host-speed-normalised time.  A measured region is cut into segments,
   each [(wall, probe)]: the wall time of the segment and the time of the
   fixed probe that closed it, oldest first.  Consecutive segments are
   grouped into windows of at least [window] wall time, the last shorter
   one joining the window before it; each window's wall time is divided
   by the mean probe inside it.  The result is the region's wall time in
   probe durations, so a slow stretch of the host counts as less time. *)
let probe_time ~window segments =
  let full, (w, p, n) =
    List.fold_left
      (fun (full, (w, p, n)) (sw, sp) ->
        let cur = (w + sw, p + sp, n + 1) in
        if w + sw >= window then (cur :: full, (0, 0, 0)) else (full, cur))
      ([], (0, 0, 0))
      segments
  in
  let windows =
    match full with
    | (w', p', n') :: rest when n > 0 -> (w + w', p + p', n + n') :: rest
    | _ when n > 0 -> [ (w, p, n) ]
    | _ -> full
  in
  List.fold_left
    (fun a (w, p, n) -> a +. (float_of_int w *. float_of_int n /. float_of_int p))
    0. windows
