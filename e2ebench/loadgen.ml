(* Seeded operation streams for the end-to-end benchmark.

   Everything a workload sends is drawn here from the workload seed, so
   one seed always yields one stream; the system under test only ever
   sees the generated requests.  The generator carries its own PRNG
   (SplitMix64) rather than the stdlib's, so streams do not change with
   the compiler's [Random] implementation. *)

(* --- SplitMix64 --- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A derived, independent stream: [split r k] depends only on the
   parent's current state and [k]. *)
let split r k =
  let r' = { state = Int64.logxor (next64 r) (Int64.of_int (k * 0x51ED27)) } in
  ignore (next64 r');
  r'

(* Uniform in [0, 1). *)
let float r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.

let int r n = if n <= 0 then 0 else int_of_float (float r *. float_of_int n)

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* --- Zipf over ranks 0..n-1 (rank 0 hottest) --- *)

type zipf = { cdf : float array }

let zipf ~n ~s =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

let zipf_draw z r =
  let u = float r in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Draw from [a] with Zipf-skewed popularity: the popularity order is a
   seeded shuffle of [a], so the hot keys are not the creation order. *)
type 'a skewed = { keys : 'a array; z : zipf }

let skewed r a = { keys = shuffle r a; z = zipf ~n:(Array.length a) ~s:1.0 }
let skewed_draw k r = k.keys.(zipf_draw k.z r)

(* --- operations --- *)

type kind = Read | Write

type op = { name : string; args : string list; kind : kind }

let read name args = { name; args; kind = Read }
let write name args = { name; args; kind = Write }

(* The read-only [lookup] mix: mostly point lookups of a Zipf-skewed
   login, some membership fan-out, a few prefix retrievals. *)
let lookup_stream ~seed ~logins ~lists =
  let r = rng seed in
  let users = skewed (split r 1) logins in
  let lists = skewed (split r 2) lists in
  let r = split r 3 in
  fun () ->
    let u = float r in
    let login () = skewed_draw users r in
    if u < 0.40 then read "get_user_by_login" [ login () ]
    else if u < 0.60 then read "get_pobox" [ login () ]
    else if u < 0.75 then read "get_filesys_by_label" [ login () ]
    else if u < 0.87 then read "get_lists_of_member" [ "USER"; login () ]
    else if u < 0.97 then read "get_members_of_list" [ skewed_draw lists r ]
    else
      let l = login () in
      read "get_user_by_login" [ String.sub l 0 (min 3 (String.length l)) ^ "*" ]

(* One administrative edit, and what reading it back must show. *)
type edit =
  | Shell of { login : string; shell : string }
  | Finger of { login : string; fullname : string }
  | Add_member of { list : string; login : string }
  | Del_member of { list : string; login : string }
  | Add_user of { login : string }

let edit_op = function
  | Shell { login; shell } -> write "update_user_shell" [ login; shell ]
  | Finger { login; fullname } ->
      write "update_finger_by_login"
        [ login; fullname; ""; "1 Main St"; "555-0100"; "E40"; "3-1000";
          "EECS"; "student" ]
  | Add_member { list; login } -> write "add_member_to_list" [ list; "USER"; login ]
  | Del_member { list; login } ->
      write "delete_member_from_list" [ list; "USER"; login ]
  | Add_user { login } ->
      write "add_user"
        [ login; "-1"; "/bin/csh"; "Bench"; "Burst"; ""; "1"; "burst-" ^ login;
          "G" ]

(* The read that observes an edit. *)
let check_op = function
  | Shell { login; _ } -> read "get_user_by_login" [ login ]
  | Finger { login; _ } -> read "get_finger_by_login" [ login ]
  | Add_member { login; _ } | Del_member { login; _ } ->
      read "get_lists_of_member" [ "USER"; login ]
  | Add_user { login } -> read "get_user_by_login" [ login ]

(* The edit stream of [churn] and [campus_day]: shell and finger updates
   over a Zipf-skewed hot set, and list additions each later undone by
   the matching deletion, so the database stays bounded and no edit
   fails by design.  [is_member list login] reports the starting
   memberships, which additions must avoid. *)
type edits = {
  next : unit -> edit;
  pending : (string * string) Queue.t;  (** Additions not yet undone. *)
}

(* Additions outstanding at once, at most. *)
let max_pending = 8

let edit_stream ~seed ~hot ~lists ~is_member =
  let r = rng seed in
  let users = skewed (split r 1) hot in
  let lists = skewed (split r 2) lists in
  let r = split r 3 in
  let pending = Queue.create () in
  let serial = ref 0 in
  let in_flight list login =
    Queue.fold (fun acc (l, u) -> acc || (l = list && u = login)) false pending
  in
  let rec fresh_pair tries =
    let list = skewed_draw lists r and login = skewed_draw users r in
    if is_member list login || in_flight list login then
      if tries > 0 then fresh_pair (tries - 1) else None
    else Some (list, login)
  in
  let next () =
    incr serial;
    let u = float r in
    let membership = u >= 0.8 in
    if membership && (Queue.length pending >= max_pending
                      || (not (Queue.is_empty pending) && float r < 0.5))
    then
      let list, login = Queue.pop pending in
      Del_member { list; login }
    else
      match if membership then fresh_pair 16 else None with
      | Some (list, login) ->
          Queue.push (list, login) pending;
          Add_member { list; login }
      | None ->
          let login = skewed_draw users r in
          if u < 0.45 then
            Shell { login; shell = Printf.sprintf "/bin/sh%d" !serial }
          else Finger { login; fullname = Printf.sprintf "Bench User %d" !serial }
  in
  { next; pending }

(* Undo every outstanding addition. *)
let drain e =
  let l = ref [] in
  while not (Queue.is_empty e.pending) do
    let list, login = Queue.pop e.pending in
    l := Del_member { list; login } :: !l
  done;
  List.rev !l
