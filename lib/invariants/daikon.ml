(* Likely-invariant inference in the style of Daikon, as used by the
   MIMIC failure-localization case study (section 5.4).

   Program points are function entries (one slot per argument) and
   function exits (the return value).  Over a set of passing executions
   each slot accumulates observations, from which template invariants are
   inferred: constant, small value set, range, non-zero, modulus, and
   pairwise equal / less-or-equal between argument slots of the same
   function.  Checking a failing execution reports every violated
   invariant, ranked by how specific the violated template is. *)

type slot =
  | Arg of int
  | Ret

type point = { func : string; slot : slot }

let point_to_string p =
  match p.slot with
  | Arg i -> Printf.sprintf "%s:arg%d" p.func i
  | Ret -> Printf.sprintf "%s:ret" p.func

type invariant =
  | Constant of int64
  | One_of of int64 list          (* at most 4 distinct values *)
  | Range of { lo : int64; hi : int64 }
  | Non_zero
  | Modulus of { m : int64; r : int64 }      (* v mod m = r, m in 2..8 *)
  | Eq_slots of slot * slot       (* within one function's entry *)
  | Le_slots of slot * slot

let invariant_to_string = function
  | Constant v -> Printf.sprintf "= %Ld" v
  | One_of vs ->
      "in {" ^ String.concat ", " (List.map Int64.to_string vs) ^ "}"
  | Range { lo; hi } -> Printf.sprintf "in [%Ld, %Ld]" lo hi
  | Non_zero -> "<> 0"
  | Modulus { m; r } -> Printf.sprintf "mod %Ld = %Ld" m r
  | Eq_slots (a, b) ->
      Printf.sprintf "%s = %s"
        (match a with Arg i -> "arg" ^ string_of_int i | Ret -> "ret")
        (match b with Arg i -> "arg" ^ string_of_int i | Ret -> "ret")
  | Le_slots (a, b) ->
      Printf.sprintf "%s <= %s"
        (match a with Arg i -> "arg" ^ string_of_int i | Ret -> "ret")
        (match b with Arg i -> "arg" ^ string_of_int i | Ret -> "ret")

(* specificity used for ranking violations: more specific first *)
let strength = function
  | Constant _ -> 6
  | One_of _ -> 5
  | Modulus _ -> 4
  | Eq_slots _ -> 4
  | Range _ -> 3
  | Le_slots _ -> 2
  | Non_zero -> 1

(* --- observation collection -------------------------------------------- *)

type observations = {
  (* per point: observed values *)
  values : (string, int64 list ref) Hashtbl.t;
  (* per function: entry argument vectors *)
  entries : (string, int64 array list ref) Hashtbl.t;
}

let observations () = { values = Hashtbl.create 64; entries = Hashtbl.create 16 }

let push tbl key v =
  let l =
    match Hashtbl.find_opt tbl key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add tbl key l;
        l
  in
  l := v :: !l

let record_enter obs ~func args =
  let arr = Array.of_list args in
  push obs.entries func arr;
  List.iteri
    (fun i v -> push obs.values (point_to_string { func; slot = Arg i }) v)
    args

let record_ret obs ~func value =
  match value with
  | Some v -> push obs.values (point_to_string { func; slot = Ret }) v
  | None -> ()

(* Run a program over an input set, collecting observations.  Function
   boundaries are callbacks of the reference engine only: the case study
   is offline and untimed. *)
let observe_run prog inputs obs =
  Er_vm.Interp.run_observed
    {
      Er_vm.Interp.no_observer with
      Er_vm.Interp.on_enter =
        Some (fun ~func ~args -> record_enter obs ~func args);
      on_ret = Some (fun ~func ~value -> record_ret obs ~func value);
    }
    prog inputs

(* --- inference ----------------------------------------------------------- *)

type t = {
  per_point : (string * invariant list) list;
  per_func_pairs : (string * invariant list) list;
}

let infer_slot values =
  match values with
  | [] -> []
  | v0 :: _ ->
      let distinct = List.sort_uniq Int64.compare values in
      let lo = List.hd distinct and hi = List.nth distinct (List.length distinct - 1) in
      let invs = ref [] in
      if List.for_all (Int64.equal v0) values then invs := [ Constant v0 ]
      else begin
        if List.length distinct <= 4 then invs := One_of distinct :: !invs;
        invs := Range { lo; hi } :: !invs;
        if List.for_all (fun v -> not (Int64.equal v 0L)) values then
          invs := Non_zero :: !invs;
        (* smallest modulus 2..8 under which all values agree *)
        let rec try_mod m =
          if m > 8L then ()
          else begin
            let r = Int64.unsigned_rem v0 m in
            if List.for_all (fun v -> Int64.equal (Int64.unsigned_rem v m) r) values
            then invs := Modulus { m; r } :: !invs
            else try_mod (Int64.add m 1L)
          end
        in
        try_mod 2L
      end;
      !invs

let infer_pairs entries =
  match entries with
  | [] -> []
  | first :: _ ->
      let n = Array.length first in
      let invs = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if List.for_all (fun a -> Int64.equal a.(i) a.(j)) entries then
            invs := Eq_slots (Arg i, Arg j) :: !invs
          else if List.for_all (fun a -> Int64.compare a.(i) a.(j) <= 0) entries
          then invs := Le_slots (Arg i, Arg j) :: !invs
          else if List.for_all (fun a -> Int64.compare a.(j) a.(i) <= 0) entries
          then invs := Le_slots (Arg j, Arg i) :: !invs
        done
      done;
      !invs

let infer (obs : observations) : t =
  let per_point =
    Hashtbl.fold
      (fun key values acc -> (key, infer_slot !values) :: acc)
      obs.values []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let per_func_pairs =
    Hashtbl.fold
      (fun func entries acc -> (func, infer_pairs !entries) :: acc)
      obs.entries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { per_point; per_func_pairs }

(* --- checking ------------------------------------------------------------- *)

let holds_value inv v =
  match inv with
  | Constant c -> Int64.equal v c
  | One_of vs -> List.exists (Int64.equal v) vs
  | Range { lo; hi } -> Int64.compare lo v <= 0 && Int64.compare v hi <= 0
  | Non_zero -> not (Int64.equal v 0L)
  | Modulus { m; r } -> Int64.equal (Int64.unsigned_rem v m) r
  | Eq_slots _ | Le_slots _ -> true

let holds_pair inv (args : int64 array) =
  let get = function Arg i -> args.(i) | Ret -> 0L in
  match inv with
  | Eq_slots (a, b) -> Int64.equal (get a) (get b)
  | Le_slots (a, b) -> Int64.compare (get a) (get b) <= 0
  | Constant _ | One_of _ | Range _ | Non_zero | Modulus _ -> true

type violation = {
  where : string;
  inv : invariant;
  witness : int64;
}

let check (t : t) (failing : observations) : violation list =
  let vios = ref [] in
  List.iter
    (fun (key, invs) ->
       match Hashtbl.find_opt failing.values key with
       | None -> ()
       | Some values ->
           List.iter
             (fun inv ->
                match List.find_opt (fun v -> not (holds_value inv v)) !values with
                | Some w -> vios := { where = key; inv; witness = w } :: !vios
                | None -> ())
             invs)
    t.per_point;
  List.iter
    (fun (func, invs) ->
       match Hashtbl.find_opt failing.entries func with
       | None -> ()
       | Some entries ->
           List.iter
             (fun inv ->
                match
                  List.find_opt (fun a -> not (holds_pair inv a)) !entries
                with
                | Some a ->
                    vios :=
                      { where = func ^ ":entry"; inv;
                        witness = (if Array.length a > 0 then a.(0) else 0L) }
                      :: !vios
                | None -> ())
             invs)
    t.per_func_pairs;
  List.sort (fun a b -> Int.compare (strength b.inv) (strength a.inv)) !vios

let pp_violation ppf v =
  Fmt.pf ppf "%s violates %s (witness %Ld)" v.where
    (invariant_to_string v.inv) v.witness
