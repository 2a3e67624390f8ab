(* Tests for the EIR front end: builder well-formedness checks, validator
   diagnostics, pretty-printer/parser round trips (including a randomized
   program generator). *)

open Er_ir
open Er_ir.Types
module B = Builder

let small_prog () =
  let t = B.create () in
  B.global t ~name:"g" ~ty:I32 ~size:8 ~init:(Array.make 8 3L) ();
  B.func t ~name:"add3" ~params:[ ("x", I32) ] ~ret:I32 (fun fb ->
      let y = B.add fb I32 (B.reg "x") (B.i32 3) in
      B.ret fb (Some y));
  B.func t ~name:"main" ~params:[] (fun fb ->
      let v = B.input fb I32 "in" in
      let r = B.call fb "add3" [ v ] in
      B.output fb r;
      B.ret_void fb);
  B.program t ~main:"main"

let test_builder_validates () = ignore (small_prog ())

let test_builder_rejects_unterminated () =
  let t = B.create () in
  match
    B.func t ~name:"f" ~params:[] (fun fb -> ignore (B.add fb I32 (B.i32 1) (B.i32 2)))
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unterminated function accepted"

let test_builder_rejects_unknown_callee () =
  let t = B.create () in
  B.func t ~name:"main" ~params:[] (fun fb ->
      B.call_void fb "missing" [];
      B.ret_void fb);
  match B.program t ~main:"main" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown callee accepted"

let test_validator_unknown_label () =
  let bad =
    {
      globals = [];
      funcs =
        [
          {
            fname = "main";
            params = [];
            ret_ty = None;
            blocks = [ { label = "entry"; instrs = [||]; term = Br "nowhere" } ];
          };
        ];
      main = "main";
    }
  in
  match Validate.check bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "branch to unknown label accepted"

(* --- the use rules: definite assignment and arity ----------------------- *)

let mk_block label instrs term = { label; instrs = Array.of_list instrs; term }
let mk_func fname params blocks = { fname; params; ret_ty = None; blocks }
let mk_prog funcs = { globals = []; funcs; main = "main" }
let one = Imm (1L, I64)
let set_x = Bin { dst = "%x"; op = Add; ty = I64; a = one; b = one }

(* a diamond on %c whose arms are [left] and [right], joining at [use],
   which outputs %x *)
let diamond ~left ~right =
  mk_prog
    [
      mk_func "main" []
        [
          mk_block "entry"
            [ Cmp { dst = "%c"; op = Eq; ty = I64; a = one; b = one } ]
            (Cond_br { cond = Reg "%c"; if_true = "def"; if_false = "skip" });
          mk_block "def" left (Br "use");
          mk_block "skip" right (Br "use");
          mk_block "use" [ Output { v = Reg "%x" } ] (Ret None);
        ];
    ]

(* %x is defined on the true arm only, and read after the join *)
let maybe_undefined_prog = diamond ~left:[ set_x ] ~right:[]

(* main calls (or spawns) [callee], which takes two parameters, with
   one argument *)
let wrong_arity_prog ~spawn =
  let site =
    if spawn then Spawn { func = "two"; args = [ one ] }
    else Call { dst = None; func = "two"; args = [ one ] }
  in
  mk_prog
    [
      mk_func "main" [] [ mk_block "entry" [ site ] (Ret None) ];
      mk_func "two" [ ("%a", I64); ("%b", I64) ] [ mk_block "entry" [] (Ret None) ];
    ]

(* [check] rejects [x] with an error naming each of [names] *)
let check_rejected ~check what x names =
  match check x with
  | Ok _ -> Alcotest.fail (what ^ " accepted")
  | Error e ->
      List.iter
        (fun n ->
           if not (Test_persist.contains ~sub:n e) then
             Alcotest.fail (Printf.sprintf "%s: %S does not name %s" what e n))
        names

let test_validator_rejects_maybe_undefined () =
  let check = Validate.check in
  check_rejected ~check "read of %x defined on one arm" maybe_undefined_prog
    [ "main"; "use"; "%x" ];
  (* a use before the definition in the same block *)
  check_rejected ~check "read before the definition"
    (mk_prog
       [
         mk_func "main" []
           [ mk_block "entry" [ Output { v = Reg "%x" }; set_x ] (Ret None) ];
       ])
    [ "main"; "entry"; "%x" ]

let test_validator_accepts_defined_uses () =
  let accepted what p =
    match Validate.check p with
    | Ok () -> ()
    | Error e -> Alcotest.fail (what ^ " rejected: " ^ e)
  in
  accepted "%x defined on both arms" (diamond ~left:[ set_x ] ~right:[ set_x ]);
  (* "dead" has no predecessor: statically unreachable, so exempt *)
  accepted "read in an unreachable block"
    (mk_prog
       [
         mk_func "main" []
           [
             mk_block "entry" [] (Ret None);
             mk_block "dead" [ Output { v = Reg "%never" } ] (Ret None);
           ];
       ]);
  (* a loop-carried register defined before the loop *)
  accepted "loop-carried register"
    (mk_prog
       [
         mk_func "main" []
           [
             mk_block "entry" [ set_x ] (Br "loop");
             mk_block "loop"
               [
                 Bin { dst = "%x"; op = Add; ty = I64; a = Reg "%x"; b = one };
                 Cmp { dst = "%c"; op = Ult; ty = I64; a = Reg "%x"; b = Imm (9L, I64) };
               ]
               (Cond_br { cond = Reg "%c"; if_true = "loop"; if_false = "out" });
             mk_block "out" [ Output { v = Reg "%x" } ] (Ret None);
           ];
       ])

let test_validator_rejects_wrong_arity () =
  let check = Validate.check in
  check_rejected ~check "call with one argument of two"
    (wrong_arity_prog ~spawn:false) [ "main"; "entry"; "calls two" ];
  check_rejected ~check "spawn with one argument of two"
    (wrong_arity_prog ~spawn:true) [ "main"; "entry"; "spawns two" ];
  check_rejected ~check "main with a parameter"
    (mk_prog [ mk_func "main" [ ("%p", I64) ] [ mk_block "entry" [] (Ret None) ] ])
    [ "main"; "parameter" ]

let test_front_ends_surface_use_faults () =
  (* the parser runs the validator on what it parses *)
  let check p = Parser.parse_string (Pretty.program_to_string p) in
  check_rejected ~check "parsed maybe-undefined read" maybe_undefined_prog
    [ "main"; "use"; "%x" ];
  check_rejected ~check "parsed wrong-arity call" (wrong_arity_prog ~spawn:false)
    [ "main"; "two" ];
  (* and so does the builder *)
  let check build =
    let t = B.create () in
    build t;
    match B.program t ~main:"main" with
    | p -> Ok p
    | exception Invalid_argument e -> Error e
  in
  check_rejected ~check "built undefined read"
    (fun t ->
      B.func t ~name:"main" ~params:[] (fun fb ->
          B.output fb (B.reg "%nope");
          B.ret_void fb))
    [ "main"; "%nope" ];
  check_rejected ~check "built wrong-arity call"
    (fun t ->
      B.func t ~name:"two" ~params:[ ("a", I64); ("b", I64) ] (fun fb ->
          B.ret_void fb);
      B.func t ~name:"main" ~params:[] (fun fb ->
          B.call_void fb "two" [ B.i64 1 ];
          B.ret_void fb))
    [ "main"; "two" ]

let test_roundtrip_small () =
  let p = small_prog () in
  let text = Pretty.program_to_string p in
  match Parser.parse_string text with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok p' ->
      Alcotest.(check string) "round trip is stable" text
        (Pretty.program_to_string p')

let test_parse_error_reported () =
  match Parser.parse_string "func main() { entry: frobnicate }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_parse_corpus_programs () =
  (* every corpus program must survive a print/parse/print round trip *)
  List.iter
    (fun (s : Er_corpus.Bug.spec) ->
       let text = Pretty.program_to_string s.Er_corpus.Bug.program in
       match Parser.parse_string text with
       | Error e ->
           Alcotest.fail
             (Printf.sprintf "%s failed reparse: %s" s.Er_corpus.Bug.name e)
       | Ok p' ->
           Alcotest.(check string)
             (s.Er_corpus.Bug.name ^ " round trip")
             text (Pretty.program_to_string p'))
    Er_corpus.Registry.all

(* randomized straight-line programs: pretty -> parse -> pretty fixpoint *)
let qcheck_roundtrip_random =
  let gen_prog =
    let open QCheck2.Gen in
    let ty = oneofl [ I8; I16; I32; I64 ] in
    let instr idx =
      let dst = Printf.sprintf "%%r%d" idx in
      let operand = oneofl [ Reg "%seed"; Imm (5L, I32); Imm (250L, I32) ] in
      oneof
        [
          map2 (fun op (a, b) -> Bin { dst; op; ty = I32; a; b })
            (oneofl [ Add; Sub; Mul; And; Or; Xor ])
            (pair operand operand);
          map2 (fun op (a, b) -> Cmp { dst; op; ty = I32; a; b })
            (oneofl [ Eq; Ne; Ult; Sge ])
            (pair operand operand);
          map (fun t -> Input { dst; ty = t; stream = "s" }) ty;
          return (Output { v = Reg "%seed" });
        ]
    in
    let* n = int_range 1 12 in
    let* instrs =
      flatten_l (List.init n (fun i -> instr i))
    in
    let f =
      {
        fname = "main";
        params = [];
        ret_ty = None;
        blocks =
          [
            {
              label = "entry";
              instrs =
                Array.of_list
                  (Input { dst = "%seed"; ty = I32; stream = "s" } :: instrs);
              term = Ret None;
            };
          ];
      }
    in
    return { globals = []; funcs = [ f ]; main = "main" }
  in
  QCheck2.Test.make ~name:"pretty/parse round trip on random programs"
    ~count:80 gen_prog
    (fun p ->
       let text = Pretty.program_to_string p in
       match Parser.parse_string text with
       | Error _ -> false
       | Ok p' -> String.equal text (Pretty.program_to_string p'))

let suites =
  [
    ( "ir",
      [
        Alcotest.test_case "builder validates" `Quick test_builder_validates;
        Alcotest.test_case "builder rejects unterminated" `Quick
          test_builder_rejects_unterminated;
        Alcotest.test_case "builder rejects unknown callee" `Quick
          test_builder_rejects_unknown_callee;
        Alcotest.test_case "validator catches bad label" `Quick
          test_validator_unknown_label;
        Alcotest.test_case "validator rejects maybe-undefined reads" `Quick
          test_validator_rejects_maybe_undefined;
        Alcotest.test_case "validator accepts defined uses" `Quick
          test_validator_accepts_defined_uses;
        Alcotest.test_case "validator rejects wrong arity" `Quick
          test_validator_rejects_wrong_arity;
        Alcotest.test_case "builder and parser surface use faults" `Quick
          test_front_ends_surface_use_faults;
        Alcotest.test_case "round trip (small)" `Quick test_roundtrip_small;
        Alcotest.test_case "parse error reported" `Quick test_parse_error_reported;
        Alcotest.test_case "round trip (entire corpus)" `Quick
          test_parse_corpus_programs;
        QCheck_alcotest.to_alcotest qcheck_roundtrip_random;
      ] );
  ]
