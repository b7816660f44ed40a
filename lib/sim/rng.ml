type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64 step *)
let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next t }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (next t) land max_int in
  v mod n

let in_range t lo hi =
  if hi < lo then invalid_arg "Rng.in_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t < p

let jitter t ~frac x =
  if frac <= 0.0 then x
  else
    let f = 1.0 +. (frac *. ((2.0 *. float t) -. 1.0)) in
    let v = int_of_float (Float.round (float_of_int x *. f)) in
    max 0 v

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
