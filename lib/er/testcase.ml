(* A generated test case: concrete values for every input read the failing
   execution performed, in consumption order per stream.  Feeding these
   back through {!Er_vm.Inputs} replays the failure — the paper's
   "concrete test case (input + control flow)" deliverable. *)

module Expr = Er_smt.Expr

type t = { streams : (string * int64 list) list }

let of_solution (sol : Er_symex.Exec.solution) : t =
  let tbl : (string, int64 list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (stream, var) ->
       let l =
         match Hashtbl.find_opt tbl stream with
         | Some l -> l
         | None ->
             let l = ref [] in
             Hashtbl.add tbl stream l;
             order := stream :: !order;
             l
       in
       let name =
         match Expr.node var with
         | Expr.Var n -> n
         | _ -> assert false
       in
       let v =
         Option.value ~default:0L (Er_smt.Model.value sol.Er_symex.Exec.model name)
       in
       l := v :: !l)
    sol.Er_symex.Exec.input_log;
  {
    streams =
      List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order;
  }

let to_inputs (t : t) : Er_vm.Inputs.t = Er_vm.Inputs.make t.streams

let total_values t =
  List.fold_left (fun acc (_, l) -> acc + List.length l) 0 t.streams

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list (fun ppf (s, vals) ->
         Fmt.pf ppf "%s: [%a]" s
           Fmt.(list ~sep:(any ", ") (fun ppf v -> pf ppf "%Ld" v))
           vals))
    t.streams
