(* Execution-semantics tests for Ecode, run against BOTH engines — the
   closure compiler (the DCG analogue) and the interpreter, over one
   checked program — plus property tests that the two agree. *)

open Pbio

(* An engine's entry point: both parse and check the program the same way. *)
let build engine =
  match engine with
  | `Compiled -> Ecode.compile ?ctx:None
  | `Interp -> Ecode.interpret

(* Run [code] with a single in/out record parameter [io] of format [fmt],
   under the given engine; returns the (mutated) record. *)
let run_with ~engine ~(fmt : Ptype.record) (code : string) (io : Value.t) : Value.t =
  match build engine ~params:[ ("io", Ptype.Record fmt) ] code with
  | Ok f ->
    f [| io |];
    io
  | Error e -> Alcotest.failf "compile failed: %s" e

let scratch_fmt =
  Ptype_dsl.format_of_string_exn
    {|record Pt { int x; float y; unsigned u; char c; bool b; int k; int ks[k]; }
      format Scratch {
        int i1; int i2; float x1; float x2; string s1; string s2;
        bool b1; char c1; unsigned u1;
        int n;
        int xs[n];
        Pt r1; Pt r2;
        int m;
        Pt ps[m];
      }|}

let fresh () = Value.default_record scratch_fmt

let both name code (checks : Value.t -> unit) : unit Alcotest.test_case list =
  let case engine label =
    Alcotest.test_case (name ^ " [" ^ label ^ "]") `Quick (fun () ->
        checks (run_with ~engine ~fmt:scratch_fmt code (fresh ())))
  in
  [ case `Compiled "compiled"; case `Interp "interp" ]

let geti v f = Value.to_int (Value.get_field v f)
let getf v f = Value.to_float (Value.get_field v f)
let gets v f = Value.to_string_exn (Value.get_field v f)
let getb v f = Value.to_bool (Value.get_field v f)

(* A field by dotted path, e.g. ["r1.ks"]. *)
let getv v path =
  List.fold_left Value.get_field v (String.split_on_char '.' path)

let ints v path =
  let a = getv v path in
  List.init (Value.array_len a) (fun i -> Value.to_int (Value.array_get a i))

let check_value name want v = Alcotest.check Helpers.value name want v

let arithmetic_cases =
  both "arithmetic"
    {| io.i1 = 7 + 3 * 4 - 10 / 3;
       io.i2 = 17 % 5;
       io.x1 = 1.5 * 4.0 + 1;
       io.x2 = 7 / 2.0; |}
    (fun v ->
       Alcotest.(check int) "int expr" 16 (geti v "i1");
       Alcotest.(check int) "mod" 2 (geti v "i2");
       Alcotest.(check (float 1e-9)) "float expr" 7.0 (getf v "x1");
       Alcotest.(check (float 1e-9)) "mixed division" 3.5 (getf v "x2"))

let bitwise_cases =
  both "bitwise and shifts"
    {| io.i1 = (12 & 10) | (1 ^ 3);
       io.i2 = (1 << 5) >> 2; |}
    (fun v ->
       Alcotest.(check int) "masks" ((12 land 10) lor (1 lxor 3)) (geti v "i1");
       Alcotest.(check int) "shifts" 8 (geti v "i2"))

let comparison_cases =
  both "comparisons and logic"
    {| io.b1 = (1 < 2) && (2 <= 2) && (3 > 2) && (2 >= 2) && (1 == 1) && (1 != 2);
       io.i1 = (("abc" < "abd") && ("a" == "a")) ? 1 : 0;
       io.i2 = (1.5 > 1.0 || false) ? 10 : 20; |}
    (fun v ->
       Alcotest.(check bool) "chain" true (getb v "b1");
       Alcotest.(check int) "string compare" 1 (geti v "i1");
       Alcotest.(check int) "ternary" 10 (geti v "i2"))

let unary_cases =
  both "unary operators"
    {| io.i1 = -5 + +3;
       io.b1 = !(1 == 2);
       io.i2 = ~0;
       io.x1 = -(2.5); |}
    (fun v ->
       Alcotest.(check int) "neg" (-2) (geti v "i1");
       Alcotest.(check bool) "not" true (getb v "b1");
       Alcotest.(check int) "bnot" (-1) (geti v "i2");
       Alcotest.(check (float 1e-9)) "fneg" (-2.5) (getf v "x1"))

let loop_cases =
  both "loops"
    {| int i, acc = 0;
       for (i = 1; i <= 10; i++) acc = acc + i;
       io.i1 = acc;
       int j = 0; acc = 0;
       while (j < 5) { acc = acc + 2; j++; }
       io.i2 = acc;
       int k = 0;
       do { k++; } while (k < 3);
       io.u1 = k; |}
    (fun v ->
       Alcotest.(check int) "for" 55 (geti v "i1");
       Alcotest.(check int) "while" 10 (geti v "i2");
       Alcotest.(check int) "do-while" 3 (geti v "u1"))

let break_continue_cases =
  both "break and continue"
    {| int i, acc = 0;
       for (i = 0; i < 100; i++) {
         if (i % 2 == 0) continue;
         if (i > 8) break;
         acc = acc + i;
       }
       io.i1 = acc; |}
    (fun v -> Alcotest.(check int) "1+3+5+7" 16 (geti v "i1"))

let return_cases =
  both "return stops execution"
    {| io.i1 = 1;
       return;
       io.i1 = 2; |}
    (fun v -> Alcotest.(check int) "stopped" 1 (geti v "i1"))

let nested_loop_break_cases =
  both "break only exits the inner loop"
    {| int i, j, acc = 0;
       for (i = 0; i < 3; i++) {
         for (j = 0; j < 10; j++) {
           if (j == 2) break;
           acc++;
         }
       }
       io.i1 = acc; |}
    (fun v -> Alcotest.(check int) "3 * 2" 6 (geti v "i1"))

let string_cases =
  both "string operations"
    {| io.s1 = "a" + "b" + 1 + true + 'x';
       io.i1 = strlen(io.s1);
       io.s2 = string(3.5) + "|" + string(42); |}
    (fun v ->
       Alcotest.(check string) "concat coerces" "ab1truex" (gets v "s1");
       Alcotest.(check int) "strlen" 8 (geti v "i1");
       Alcotest.(check string) "casts" "3.5|42" (gets v "s2"))

let builtin_cases =
  both "builtins"
    {| io.i1 = abs(-5) + min(3, 7) + max(3, 7);
       io.x1 = fabs(-2.5) + floor(1.9) + ceil(0.1) + sqrt(16.0);
       io.x2 = min(1.5, 2) + max(0.5, 0.25) + pow(2.0, 10.0); |}
    (fun v ->
       Alcotest.(check int) "int builtins" 15 (geti v "i1");
       Alcotest.(check (float 1e-9)) "float builtins" 8.5 (getf v "x1");
       Alcotest.(check (float 1e-9)) "mixed minmax + pow" 1026.0 (getf v "x2"))

let cast_cases =
  both "casts"
    {| io.i1 = int(3.99);
       io.x1 = float(7);
       io.c1 = char(65);
       io.b1 = bool(2);
       io.u1 = unsigned(5);
       io.i2 = int('A'); |}
    (fun v ->
       Alcotest.(check int) "float->int" 3 (geti v "i1");
       Alcotest.(check (float 1e-9)) "int->float" 7.0 (getf v "x1");
       Alcotest.(check int) "char cast" 65 (geti v "c1");
       Alcotest.(check bool) "bool cast" true (getb v "b1");
       Alcotest.(check int) "unsigned" 5 (geti v "u1");
       Alcotest.(check int) "char->int" 65 (geti v "i2"))

let incr_cases =
  both "increment and decrement"
    {| int i = 5;
       io.i1 = i++;
       io.i2 = i;
       int j = 5;
       io.u1 = ++j;
       io.x1 = 1.0;
       io.x1++;
       int k = 3;
       io.n = --k + k--; |}
    (fun v ->
       Alcotest.(check int) "post returns old" 5 (geti v "i1");
       Alcotest.(check int) "then incremented" 6 (geti v "i2");
       Alcotest.(check int) "pre returns new" 6 (geti v "u1");
       Alcotest.(check (float 1e-9)) "float incr" 2.0 (getf v "x1");
       Alcotest.(check int) "mixed" 4 (geti v "n"))

(* ++/-- store the kind of the lvalue (the interpreter's assignment
   rules), not a bare int. *)
let incr_kind_cases =
  both "++/-- keep the lvalue's kind"
    {| io.u1++;
       io.c1 = 'a'; io.c1++;
       io.b1++;
       io.r1.u--;
       io.r1.c = 'z'; ++io.r1.c;
       io.r1.b--;
       unsigned t = 7; t++; io.r2.u = t; |}
    (fun v ->
       check_value "unsigned" (Value.Uint 1) (getv v "u1");
       check_value "char" (Value.Char 'b') (getv v "c1");
       check_value "bool" (Value.Bool true) (getv v "b1");
       check_value "unsigned wraps" (Value.Uint 0xFFFF_FFFF) (getv v "r1.u");
       check_value "nested char" (Value.Char '{') (getv v "r1.c");
       check_value "false-- is true" (Value.Bool true) (getv v "r1.b");
       check_value "unsigned local" (Value.Uint 8) (getv v "r2.u");
       Alcotest.(check bool) "conforms" true (Value.conforms (Ptype.Record scratch_fmt) v))

let incr_result_cases =
  both "++/-- yield the stored value (pre) or the old one (post)"
    {| io.c1 = 'a';
       io.s1 = string(io.c1++);
       io.s2 = string(++io.c1);
       io.b1 = true;
       io.i1 = io.b1--;
       io.i2 = --io.b1;
       io.x1 = io.u1--; |}
    (fun v ->
       Alcotest.(check string) "post char" "a" (gets v "s1");
       Alcotest.(check string) "pre char" "c" (gets v "s2");
       Alcotest.(check int) "post bool" 1 (geti v "i1");
       Alcotest.(check int) "pre bool" 1 (geti v "i2");
       Alcotest.(check (float 0.)) "post unsigned" 0.0 (getf v "x1");
       check_value "unsigned wrapped" (Value.Uint 0xFFFF_FFFF) (getv v "u1"))

(* The lvalue's path is resolved once, before the right-hand side runs. *)
let assign_order_cases =
  both "assignment resolves the lvalue before the right-hand side"
    {| int i = 0;
       io.xs[0] = 7; io.xs[1] = 8;
       io.xs[i] = i++; |}
    (fun v -> Alcotest.(check (list int)) "xs" [ 0; 8 ] (ints v "xs"))

let compound_index_cases =
  both "compound assignment evaluates its index once"
    {| int k = 0;
       io.xs[0] = 1; io.xs[1] = 10; io.xs[2] = 100;
       io.xs[k++] += 5;
       io.i1 = k;
       io.i2 = 1;
       io.i2 += (io.i2 = 10); |}
    (fun v ->
       Alcotest.(check (list int)) "xs" [ 6; 10; 100 ] (ints v "xs");
       Alcotest.(check int) "k" 1 (geti v "i1");
       Alcotest.(check int) "current value read after the right-hand side" 20 (geti v "i2"))

let record_copy_cases =
  both "record assignment copies"
    {| io.r1.x = 1; io.r1.ks[0] = 4;
       io.r2 = io.r1;
       io.r1.x = 9; io.r1.ks[0] = 5;
       io.ps[len(io.ps)] = io.r1;
       io.r1.y = 2.5; io.r1.ks[1] = 6; |}
    (fun v ->
       Alcotest.(check int) "r2.x" 1 (geti (getv v "r2") "x");
       Alcotest.(check (list int)) "r2.ks" [ 4 ] (ints v "r2.ks");
       let p0 = Value.array_get (getv v "ps") 0 in
       Alcotest.(check int) "ps[0].x" 9 (geti p0 "x");
       Alcotest.(check (float 0.)) "ps[0].y" 0.0 (getf p0 "y");
       Alcotest.(check (list int)) "ps[0].ks" [ 5 ] (ints p0 "ks"))

(* A store past the end fills each gap slot with its own element: a later
   store through one slot shows in no other. *)
let gap_slot_cases =
  both "a store past the end gives each gap slot its own element"
    {| io.r1.x = 9;
       io.ps[3] = io.r1;
       io.ps[0].x = 1;
       io.ps[1].ks[0] = 4; |}
    (fun v ->
       let ps = getv v "ps" in
       Alcotest.(check (list int)) "ps[].x" [ 1; 0; 0; 9 ]
         (List.init (Value.array_len ps) (fun i -> geti (Value.array_get ps i) "x"));
       Alcotest.(check (list int)) "ps[0].ks" [] (ints (Value.array_get ps 0) "ks");
       Alcotest.(check (list int)) "ps[1].ks" [ 4 ] (ints (Value.array_get ps 1) "ks"))

(* A read path evaluates its index before it reads its base: here the
   index replaces the array it then indexes. *)
let read_order_cases =
  both "a read path evaluates its index before its base"
    {| io.xs[0] = 10; io.xs[1] = 20; io.xs[2] = 30;
       io.r1.ks[0] = 1; io.r1.ks[1] = 5;
       io.i1 = io.xs[(io.xs = io.r1.ks)[0]]; |}
    (fun v ->
       Alcotest.(check int) "read from the new array" 5 (geti v "i1");
       Alcotest.(check (list int)) "xs replaced" [ 1; 5 ] (ints v "xs"))

let compound_assign_cases =
  both "compound assignment"
    {| int a = 10;
       a += 5; a -= 3; a *= 2; a /= 4; a %= 4;
       io.i1 = a;
       io.x1 = 10.0;
       io.x1 /= 4; |}
    (fun v ->
       Alcotest.(check int) "chain" 2 (geti v "i1");
       Alcotest.(check (float 1e-9)) "float compound" 2.5 (getf v "x1"))

let array_cases =
  both "arrays: write, read, autogrow"
    {| int i;
       for (i = 0; i < 5; i++) io.xs[i] = i * i;
       io.n = 5;
       io.i1 = io.xs[3];
       io.i2 = len(io.xs); |}
    (fun v ->
       Alcotest.(check int) "element" 9 (geti v "i1");
       Alcotest.(check int) "len builtin" 5 (geti v "i2");
       Alcotest.(check int) "grown" 5 (Value.array_len (Value.get_field v "xs")))

let assignment_as_expression_cases =
  both "assignment yields the stored value"
    {| int a, b;
       a = b = 4;
       io.i1 = a + b;
       io.i2 = (a = 7) + 1; |}
    (fun v ->
       Alcotest.(check int) "chained" 8 (geti v "i1");
       Alcotest.(check int) "value of assignment" 8 (geti v "i2"))

let coercion_on_field_assign_cases =
  both "assigning across numeric field types coerces"
    {| io.i1 = 3.99;
       io.x1 = 4;
       io.c1 = 66;
       io.b1 = 3; |}
    (fun v ->
       Alcotest.(check int) "float->int field" 3 (geti v "i1");
       Alcotest.(check (float 1e-9)) "int->float field" 4.0 (getf v "x1");
       Alcotest.(check int) "int->char field" 66 (geti v "c1");
       Alcotest.(check bool) "int->bool field" true (getb v "b1"))

let switch_cases =
  both "switch: dispatch and break"
    {| int k;
       for (k = 0; k < 5; k++) {
         switch (k) {
           case 0: io.i1 = io.i1 + 1; break;
           case 1:
           case 2: io.i2 = io.i2 + 10; break;
           default: io.n = io.n + 100; break;
         }
       } |}
    (fun v ->
       Alcotest.(check int) "case 0 once" 1 (geti v "i1");
       Alcotest.(check int) "cases 1,2 grouped" 20 (geti v "i2");
       Alcotest.(check int) "default twice" 200 (geti v "n"))

let switch_fallthrough_cases =
  both "switch: fallthrough"
    {| switch (2) {
         case 1: io.i1 = io.i1 + 1;
         case 2: io.i1 = io.i1 + 10;
         case 3: io.i1 = io.i1 + 100; break;
         case 4: io.i1 = io.i1 + 1000;
       }
       switch ('x') {
         case 'x': io.i2 = 7;
         default: io.i2 = io.i2 + 1;
       } |}
    (fun v ->
       Alcotest.(check int) "fell through 2 -> 3, stopped at break" 110 (geti v "i1");
       Alcotest.(check int) "char labels + fallthrough to default" 8 (geti v "i2"))

let switch_no_match_cases =
  both "switch: no match, no default"
    {| io.i1 = 5;
       switch (99) { case 1: io.i1 = 0; break; } |}
    (fun v -> Alcotest.(check int) "untouched" 5 (geti v "i1"))

let switch_in_loop_cases =
  both "switch: break exits switch, not the loop"
    {| int k;
       for (k = 0; k < 4; k++) {
         switch (k) { case 1: break; default: io.i1 = io.i1 + 1; break; }
         io.i2 = io.i2 + 1;
       } |}
    (fun v ->
       Alcotest.(check int) "default arm ran 3 times" 3 (geti v "i1");
       Alcotest.(check int) "loop ran all 4 iterations" 4 (geti v "i2"))

let function_cases =
  both "functions: definition and call"
    {| int clamp(int x, int lo, int hi) {
         if (x < lo) return lo;
         if (x > hi) return hi;
         return x;
       }
       string label(int n) {
         if (n > 0) return "pos";
         return "nonpos";
       }
       io.i1 = clamp(15, 0, 10);
       io.i2 = clamp(-3, 0, 10) + clamp(5, 0, 10);
       io.s1 = label(io.i1); |}
    (fun v ->
       Alcotest.(check int) "clamped high" 10 (geti v "i1");
       Alcotest.(check int) "clamped low + pass" 5 (geti v "i2");
       Alcotest.(check string) "string return" "pos" (gets v "s1"))

let recursion_cases =
  both "functions: recursion"
    {| int fib(int n) {
         if (n < 2) return n;
         return fib(n - 1) + fib(n - 2);
       }
       io.i1 = fib(15); |}
    (fun v -> Alcotest.(check int) "fib 15" 610 (geti v "i1"))

let mutual_recursion_cases =
  both "functions: mutual recursion"
    {| int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
       int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
       io.i1 = is_even(10);
       io.i2 = is_odd(10); |}
    (fun v ->
       Alcotest.(check int) "even" 1 (geti v "i1");
       Alcotest.(check int) "odd" 0 (geti v "i2"))

let void_function_cases =
  both "functions: void and fallthrough returns"
    {| int counter() { return 0; }
       void noop(int x) { if (x > 100) return; }
       int no_explicit_return(int x) { if (x > 0) return x; }
       noop(5);
       io.i1 = no_explicit_return(7);
       io.i2 = no_explicit_return(-7); |}
    (fun v ->
       Alcotest.(check int) "explicit path" 7 (geti v "i1");
       Alcotest.(check int) "fallthrough yields default" 0 (geti v "i2"))

let function_arg_coercion_cases =
  both "functions: argument and return coercions"
    {| float half(float x) { return x / 2; }
       int trunc2(float x) { return int(x); }
       io.x1 = half(7);
       io.i1 = trunc2(9.9); |}
    (fun v ->
       Alcotest.(check (float 1e-9)) "int arg to float param" 3.5 (getf v "x1");
       Alcotest.(check int) "float to int return" 9 (geti v "i1"))

let function_shadow_builtin_cases =
  both "functions: user definitions shadow builtins"
    {| int max(int a, int b) { return 42; }
       io.i1 = max(1, 2); |}
    (fun v -> Alcotest.(check int) "user max wins" 42 (geti v "i1"))

let test_function_static_errors () =
  let expect_err src =
    match Ecode.compile ~params:[ ("io", Ptype.Record scratch_fmt) ] src with
    | Ok _ -> Alcotest.failf "expected error for %S" src
    | Error _ -> ()
  in
  expect_err "int f(int a) { return a; } int f(int b) { return b; }";
  expect_err "int f(int a) { return a; } io.i1 = f();";
  expect_err "int f(int a) { return a; } io.i1 = f(1, 2);";
  expect_err "void f() { return 1; } f();";
  expect_err "int f() { return; } io.i1 = f();";
  expect_err "void f() { } io.i1 = f();";
  expect_err "int f(string s) { return s; } io.i1 = f(\"x\");";
  expect_err "int f() { return g(); }"

let test_switch_static_errors () =
  let expect_err src =
    match Ecode.compile ~params:[ ("io", Ptype.Record scratch_fmt) ] src with
    | Ok _ -> Alcotest.failf "expected error for %S" src
    | Error _ -> ()
  in
  expect_err "switch (1) { case 1: break; case 1: break; }";
  expect_err "switch (1) { default: break; default: break; }";
  expect_err "switch (io.s1) { case 1: break; }";
  expect_err "switch (1) { case 1.5: break; }"

(* --- runtime errors -------------------------------------------------------- *)

let test_division_by_zero_compiled () =
  try
    ignore
      (run_with ~engine:`Compiled ~fmt:scratch_fmt "io.i1 = 1 / (io.i2);" (fresh ()));
    Alcotest.fail "expected Runtime_error"
  with Coerce.Runtime_error _ -> ()

let test_division_by_zero_interp () =
  try
    ignore (run_with ~engine:`Interp ~fmt:scratch_fmt "io.i1 = 1 / (io.i2);" (fresh ()));
    Alcotest.fail "expected Runtime_error"
  with Coerce.Runtime_error _ -> ()

(* --- the paper's Figure 5 transformation ----------------------------------- *)

let test_fig5_transformation_both_engines () =
  let v2_msg = Helpers.sample_v2 30 in
  let compiled =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1
         Helpers.fig5_code)
  in
  let interpreted =
    Helpers.check_ok
      (Ecode.interpret_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1
         Helpers.fig5_code)
  in
  let a = compiled v2_msg in
  let b = interpreted v2_msg in
  Alcotest.check Helpers.value "engines agree" a b;
  Alcotest.(check bool) "conforms to v1" true
    (Value.conforms (Ptype.Record Helpers.response_v1) a);
  (* every third member is a source, every second a sink *)
  Alcotest.(check int) "src count" 10 (Value.to_int (Value.get_field a "src_count"));
  Alcotest.(check int) "sink count" 15 (Value.to_int (Value.get_field a "sink_count"));
  Alcotest.(check int) "member_list intact" 30
    (Value.array_len (Value.get_field a "member_list"));
  (* the input message is untouched *)
  Alcotest.check Helpers.value "input preserved" (Helpers.sample_v2 30) v2_msg

(* Allocation budget of the compiled Figure 5 transform (a deterministic
   count): the message of the end-to-end benchmark, 255 members that are
   all sources and sinks, so every member lands in all three v1.0 lists.
   Each appended element is built once, with only what survives: about
   585 B per member. *)
let test_fig5_alloc_budget () =
  let n = 255 in
  let msg = Echo.Wire_formats.gen_response_v2_full n in
  let xform =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1
         Helpers.fig5_code)
  in
  let per_member = Helpers.alloc_per_call (fun () -> ignore (xform msg)) /. float_of_int n in
  if per_member > 640. then
    Alcotest.failf "Figure 5 transform allocates %.0f B per member (budget 640)" per_member

(* --- element stores: what the property cannot reach --------------------------- *)

(* Runs [code] on one [io] under each engine, twice, with [between] applied
   to [io] after the first run; each run's exception is kept. *)
let run_twice code ~(between : Value.t -> unit) engine : Value.t * string list =
  let io = fresh () in
  let f = Helpers.check_ok (build engine ~params:[ ("io", Ptype.Record scratch_fmt) ] code) in
  let attempt () =
    match f [| io |] with
    | () -> "ok"
    | exception Coerce.Runtime_error m -> "runtime: " ^ m
    | exception Value.Type_error m -> "type: " ^ m
  in
  let first = attempt () in
  between io;
  let second = attempt () in
  (io, [ first; second ])

(* A right-hand side that raises in the middle of a run of stores into an
   appended element: the element is left as the interpreter leaves it, and
   its array field is its own, not the default the next append starts
   from. *)
let test_group_raise_midway () =
  let code =
    "int c = len(io.ps); io.ps[c].x = 5; io.ps[c].y = 1 / io.i1; io.ps[c].ks = io.r1.ks;"
  in
  let between io =
    (* grow the half-built element's array in place *)
    Value.array_push (getv (Value.array_get (getv io "ps") 0) "ks") (Value.Int 42)
  in
  let c, c_errs = run_twice code ~between `Compiled in
  let i, i_errs = run_twice code ~between `Interp in
  Alcotest.(check (list string)) "both runs fail" [ "runtime: division by zero"; "runtime: division by zero" ] c_errs;
  Alcotest.(check (list string)) "same errors" i_errs c_errs;
  check_value "io as the interpreter leaves it" i c;
  let ps = getv c "ps" in
  Alcotest.(check int) "two elements" 2 (Value.array_len ps);
  Alcotest.(check (list int)) "first element's own array" [ 42 ] (ints (Value.array_get ps 0) "ks");
  Alcotest.(check (list int)) "second element's array untouched" [] (ints (Value.array_get ps 1) "ks")

(* An index past the end, or below 0: the same error on both engines,
   raised before the right-hand side runs, and the array unchanged. *)
let test_group_index_out_of_range () =
  List.iter
    (fun (index, want) ->
       let code =
         Printf.sprintf "io.ps[0].x = 3; int c = %s; io.ps[c].x = 1 / io.i1; io.ps[c].y = 2;" index
       in
       let run engine =
         let io = fresh () in
         let err =
           match run_with ~engine ~fmt:scratch_fmt code io with
           | _ -> "ok"
           | exception Value.Type_error m -> m
           | exception Coerce.Runtime_error m -> "runtime: " ^ m
         in
         (io, err)
       in
       let c, c_err = run `Compiled and i, i_err = run `Interp in
       Alcotest.(check string) ("compiled error, c = " ^ index) want c_err;
       Alcotest.(check string) ("interp error, c = " ^ index) want i_err;
       check_value "same io" i c;
       Alcotest.(check (list int)) "array unchanged" [ 3 ]
         (let ps = getv c "ps" in
          List.init (Value.array_len ps) (fun k -> geti (Value.array_get ps k) "x")))
    [ ("len(io.ps) + 1", "array index 2 out of bounds (len 1)");
      ("-1", "array index -1 out of bounds (len 1)") ]

(* One value passed for two parameters: stores through one and reads
   through the other see each other, as in the interpreter. *)
let test_group_aliased_params () =
  let code =
    {| int c = len(a.ps);
       a.ps[c].x = 4;
       a.ps[c].y = b.ps[c].x + 0.5;
       a.ps[c].ks = b.r1.ks;
       a.ps[c].k = len(b.ps[c].ks) + len(b.ps);
       b.r1.x = a.ps[c].x + b.ps[c].k;
       a.ps[c].ks[0] = 9; |}
  in
  let setup () =
    let v = fresh () in
    Value.array_push (getv v "r1.ks") (Value.Int 1);
    Value.array_push (getv v "r1.ks") (Value.Int 2);
    v
  in
  let c = setup () and i = setup () in
  let params = [ ("a", Ptype.Record scratch_fmt); ("b", Ptype.Record scratch_fmt) ] in
  (Helpers.check_ok (Ecode.compile ~params code)) [| c; c |];
  (Helpers.check_ok (Ecode.interpret ~params code)) [| i; i |];
  check_value "engines agree" i c;
  let p0 = Value.array_get (getv c "ps") 0 in
  Alcotest.(check (float 0.)) "y read x through the alias" 4.5 (getf p0 "y");
  Alcotest.(check int) "k" 3 (geti p0 "k");
  Alcotest.(check int) "r1.x" 7 (geti (getv c "r1") "x");
  Alcotest.(check (list int)) "ks copied, then stored into" [ 9; 2 ] (ints p0 "ks");
  Alcotest.(check (list int)) "r1.ks untouched" [ 1; 2 ] (ints c "r1.ks")

(* A float tests non-zero, as in C, both as a bare condition and stored
   into a bool: 0.5 and -0.25 are true and 0.0 false on both engines. *)
let test_float_conditions () =
  let code =
    {| io.b1 = io.x1;
       if (io.x1) io.i1 = 1;
       if (io.x2) io.i2 = 1;
       if (!io.r1.y && io.x1) io.n = 1;
       io.r2.b = -0.25; |}
  in
  let setup () =
    let v = fresh () in
    Value.set_field v "x1" (Value.Float 0.5);
    v
  in
  let c = run_with ~engine:`Compiled ~fmt:scratch_fmt code (setup ()) in
  let i = run_with ~engine:`Interp ~fmt:scratch_fmt code (setup ()) in
  check_value "engines agree" i c;
  Alcotest.(check (list bool)) "0.5 stored, -0.25 stored" [ true; true ]
    [ getb c "b1"; getb (getv c "r2") "b" ];
  Alcotest.(check (list int)) "if (0.5), if (0.0), if (!0.0 && 0.5)" [ 1; 0; 1 ]
    [ geti c "i1"; geti c "i2"; geti c "n" ]

(* --- one checked program ----------------------------------------------------- *)

(* Each call has its own frame: a local set before a recursive call still
   holds its value after it returns. *)
let frame_cases =
  both "functions: each call has its own locals"
    {| int f(int n) {
         int k = n * 10;
         if (n > 0) { int r = f(n - 1); k = k + r; }
         return k + n;
       }
       io.i1 = f(3); |}
    (fun v -> Alcotest.(check int) "f(3) = 30 + f(2) + 3" 66 (geti v "i1"))

(* What the checker refuses, both engines refuse at compile time, with the
   checker's text. *)
let test_refused_alike () =
  let refusal build src =
    match build src with
    | Ok _ -> Alcotest.failf "expected %S to be refused" src
    | Error e -> e
  in
  let params = [ ("io", Ptype.Record scratch_fmt) ] in
  List.iter
    (fun src ->
       Alcotest.(check string) src
         (refusal (build `Compiled ~params) src)
         (refusal (build `Interp ~params) src))
    [ "io.i1 = io.zz;"; "io.i1 = \"s\";"; "io.s1 = io.i1 + io.x1;"; "io.i1 = g(1);";
      "int f(int a) { return a; } io.i1 = f();"; "io.i1 = ;" ]

(* An enum store runs the checker's coercion on both engines: a value a
   case carries becomes that case, any other fails with one text. *)
let test_enum_stores_alike () =
  let s = Ptype_dsl.format_of_string_exn "format S { int p; }" in
  let t = Ptype_dsl.format_of_string_exn "enum E { A = 0, B = 1 } format T { E e; }" in
  let run xform p =
    let f = Helpers.check_ok (xform ~src:s ~dst:t "old.e = new.p;") in
    match f (Value.record [ ("p", Value.Int p) ]) with
    | v -> Value.to_string v
    | exception Coerce.Runtime_error m -> "runtime: " ^ m
  in
  List.iter
    (fun (p, want) ->
       Alcotest.(check string) (Printf.sprintf "compiled, p = %d" p) want
         (run (Ecode.compile_xform ?ctx:None) p);
       Alcotest.(check string) (Printf.sprintf "interp, p = %d" p) want
         (run Ecode.interpret_xform p))
    [ (0, "{e=A(0)}"); (1, "{e=B(1)}"); (-1, "runtime: no case of enum E has value -1") ]

(* A store at an index no array can reach fails alike on both engines,
   before the array grows: 2^60 - 1, and the first index past the largest
   array, into an int array and into an array of records. *)
let test_store_past_largest_array () =
  List.iter
    (fun (store, index) ->
       let code = Printf.sprintf "io.xs[0] = 1; io.ps[0].x = 1; %s" (Printf.sprintf store index) in
       let run engine =
         let io = fresh () in
         match run_with ~engine ~fmt:scratch_fmt code io with
         | _ -> (io, "ok")
         | exception Value.Type_error m -> (io, m)
       in
       let c, c_err = run `Compiled and i, i_err = run `Interp in
       Alcotest.(check string) "same error" c_err i_err;
       Alcotest.(check bool) c_err true (Helpers.contains c_err "exceeds the largest array length");
       check_value "same io" i c;
       Alcotest.(check (list int)) "xs unchanged" [ 1 ] (ints c "xs");
       Alcotest.(check int) "ps unchanged" 1 (Value.array_len (getv c "ps")))
    [ ("io.xs[%d] = 2;", 1152921504606846975); ("io.xs[%d] = 2;", Sys.max_array_length);
      ("io.ps[%d] = io.r1;", Sys.max_array_length) ]

(* --- equivalence property ---------------------------------------------------- *)

(* Random programs over the scratch format: straight-line arithmetic,
   branches, loops and switches, plus what the compiled lvalues must get
   right — autogrow writes at [len(...)] (top level, inside array
   elements, in loops), pre/post [++]/[--] on every numeric kind, compound
   assignments whose index has a side effect, record copies mutated
   afterwards, Figure 5's runs of stores into one list element through an
   index local (appending in a filter loop, storing an array field or one
   field twice, ending at a nested store, overwriting an element), and
   arithmetic on int locals. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let int_fields = [ "io.i1"; "io.i2"; "io.n"; "io.r1.x" ] in
  let float_fields = [ "io.x1"; "io.x2"; "io.r2.y" ] in
  let incr_targets =
    [ "io.i1"; "io.u1"; "io.c1"; "io.b1"; "io.x1"; "io.r1.u"; "io.r1.c"; "io.r1.b";
      "io.r1.y"; "io.r2.x" ]
  in
  let gen_int_expr =
    let leaf = oneof [ map string_of_int (int_range (-50) 50); oneofl int_fields ] in
    let* a = leaf and* b = leaf and* op = oneofl [ "+"; "-"; "*" ] in
    return (Printf.sprintf "(%s %s %s)" a op b)
  in
  let gen_float_expr =
    let leaf =
      oneof
        [ map (fun n -> Printf.sprintf "%d.5" n) (int_range (-50) 50); oneofl float_fields ]
    in
    let* a = leaf and* b = leaf and* op = oneofl [ "+"; "-"; "*" ] in
    return (Printf.sprintf "(%s %s %s)" a op b)
  in
  let gen_incr =
    let* lv = oneofl incr_targets
    and* form = oneofl [ (fun s -> s ^ "++"); (fun s -> s ^ "--"); (fun s -> "++" ^ s);
                         (fun s -> "--" ^ s) ] in
    return (form lv)
  in
  let gen_stmt =
    oneof
      [
        (let* f = oneofl int_fields and* e = gen_int_expr in
         return (Printf.sprintf "%s = %s;" f e));
        (let* f = oneofl float_fields and* e = gen_float_expr in
         return (Printf.sprintf "%s = %s;" f e));
        (let* f = oneofl int_fields and* e = gen_int_expr and* g = oneofl int_fields in
         return (Printf.sprintf "if (%s > 0) %s = %s;" f g e));
        (let* f = oneofl int_fields and* e = gen_int_expr in
         return (Printf.sprintf "{ int t = %s; %s = t + 1; }" e f));
        (let* f = oneofl int_fields and* n = int_range 0 6 and* e = gen_int_expr in
         return
           (Printf.sprintf "{ int k; for (k = 0; k < %d; k++) %s += %s %% 1000; }" n f e));
        (let* f = oneofl int_fields and* c = gen_int_expr
         and* a = gen_int_expr and* b = gen_int_expr in
         return (Printf.sprintf "%s = (%s > 0) ? %s : %s;" f c a b));
        (let* f = oneofl int_fields and* e = gen_int_expr in
         return
           (Printf.sprintf
              "switch (%s %% 3) { case 0: %s += 1; break; case 1: %s -= 2; default: %s += 5; }"
              e f f f));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.s1 = io.s1 + (%s %% 100);" e));
        (* pre/post increments, as statements and as values *)
        (let* i = gen_incr in
         return (i ^ ";"));
        (let* f = oneofl (int_fields @ float_fields) and* i = gen_incr in
         return (Printf.sprintf "%s = %s;" f i));
        (let* i = gen_incr and* e = gen_int_expr in
         return (Printf.sprintf "io.s2 = string(%s) + %s;" i e));
        (let* i = oneofl [ "io.xs[len(io.xs) - 1]++"; "--io.xs[len(io.xs) - 1]" ] in
         return (Printf.sprintf "if (len(io.xs) > 0) %s;" i));
        (* autogrow writes at len(...) *)
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.xs[len(io.xs)] = %s;" e));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.ps[len(io.ps)].x = %s;" e));
        return "io.ps[len(io.ps)] = io.r1;";
        (let* e = gen_int_expr in
         return
           (Printf.sprintf
              "if (len(io.ps) > 0) io.ps[len(io.ps) - 1].ks[len(io.ps[len(io.ps) - 1].ks)] = %s;"
              e));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.r1.ks[len(io.r1.ks)] = %s;" e));
        (let* n = int_range 0 5 and* e = gen_int_expr in
         return
           (Printf.sprintf "{ int k; for (k = 0; k < %d; k++) io.xs[len(io.xs)] = k * %s; }" n e));
        (* compound assignments whose index has a side effect *)
        (let* op = oneofl [ "+="; "-="; "*=" ] and* e = gen_int_expr in
         return
           (Printf.sprintf
              "if (len(io.xs) > 1) { int k = 0; io.xs[k++] %s %s; io.xs[k] %s k; io.i2 = k; }"
              op e op));
        (let* e = gen_int_expr in
         return
           (Printf.sprintf "if (len(io.xs) > 0) { io.i2 = 0; io.xs[io.i2++] += %s; }" e));
        (let* op = oneofl [ "/="; "%=" ] and* e = gen_int_expr in
         return
           (Printf.sprintf
              "if (len(io.xs) > 0) { int k = len(io.xs); io.xs[--k] %s (%s %% 7 + 8); io.n = k; }"
              op e));
        (let* e = gen_float_expr in
         return
           (Printf.sprintf
              "if (len(io.ps) > 0) { int k = 0; io.ps[k++].y += %s; io.r1.y *= k; }" e));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.s1 += %s %% 10;" e));
        (* record copies, then mutation of the source *)
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.r2 = io.r1; io.r1.x = %s;" e));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.r2 = io.r1; io.r1.ks[len(io.r1.ks)] = %s;" e));
        (let* e = gen_int_expr in
         return
           (Printf.sprintf "if (len(io.ps) > 0) { io.r2 = io.ps[0]; io.ps[0].x = %s; }" e));
        (let* e = gen_int_expr in
         return (Printf.sprintf "io.r1.ks = io.r2.ks; io.r2.ks[len(io.r2.ks)] = %s;" e));
        (* Figure 5 shapes: runs of stores into one element [io.ps[c]]
           through an index local, appending or overwriting *)
        (let* n = int_range 0 6 and* e = gen_int_expr and* m = int_range 2 4 in
         return
           (Printf.sprintf
              "{ int c = len(io.ps), k; for (k = 0; k < %d; k++) { if ((k + %s) %% %d != 0) { \
               io.ps[c].x = k * %s + io.i1; io.ps[c].y = io.x1 + k; \
               io.ps[c].u = len(io.ps) + io.ps[c].x; c++; } } io.i2 = c; }"
              n e m e));
        (let* e = gen_int_expr in
         return
           (Printf.sprintf
              "{ int c = len(io.ps); io.ps[c].ks = io.r1.ks; io.ps[c].x = len(io.ps[c].ks) + %s; \
               io.ps[c].k = len(io.ps[c].ks); }"
              e));
        (let* e = gen_int_expr in
         return
           (Printf.sprintf
              "{ int c = len(io.ps); io.ps[c].x = %s; io.ps[c].x = io.ps[c].x * 2 + 1; \
               io.ps[c].b = io.ps[c].x > 0; }"
              e));
        (let* e = gen_int_expr in
         return
           (Printf.sprintf
              "{ int c = len(io.ps); io.ps[c].ks = io.r2.ks; io.ps[c].c = 'p'; \
               io.ps[c].ks[len(io.ps[c].ks)] = %s; io.ps[c].k = len(io.ps[c].ks); }"
              e));
        (let* e = gen_int_expr and* f = gen_float_expr in
         return
           (Printf.sprintf
              "if (len(io.ps) > 0) { int c = len(io.ps) - 1; io.ps[c].x = %s; \
               io.ps[c].y = io.ps[c].y + %s; io.ps[c].ks = io.r1.ks; }"
              e f));
        (* int locals: arithmetic, guarded division and modulo, compound
           assignments, increments *)
        (let* a = gen_int_expr and* b = gen_int_expr in
         return
           (Printf.sprintf
              "{ int a = %s, b = %s; long q = b != 0 ? a / b : a %% 7 + 1; \
               a %%= (b == 0 ? 5 : b); q -= a++; --b; io.i1 = q * 3 - a; \
               io.i2 = (a << 2) ^ (q >> 1) | ~b & 255; io.n = -a + b; }"
              a b));
        (let* n = int_range 0 6 and* e = gen_int_expr in
         return
           (Printf.sprintf
              "{ int k, t = 0; for (k = 0; k < %d; k++) { t += k * %s; if (t > 1000) t /= 3; } \
               io.r1.x = t; io.x2 = t; }"
              n e));
      ]
  in
  let* n = int_range 1 10 in
  let* stmts = list_repeat n gen_stmt in
  return (String.concat "\n" stmts)

let prop_pp_roundtrip =
  QCheck.Test.make ~name:"pretty-printed programs re-parse and run identically"
    ~count:200
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun code ->
       let p1 = match Ecode.parse code with Ok p -> p | Error e -> failwith e in
       let printed = Ecode.Pp.program_to_string p1 in
       let p2 =
         match Ecode.parse printed with
         | Ok p -> p
         | Error e -> QCheck.Test.fail_reportf "reprint does not parse: %s\n%s" e printed
       in
       let fixed = Ecode.Pp.program_to_string p2 = printed in
       let a = run_with ~engine:`Compiled ~fmt:scratch_fmt code (fresh ()) in
       let b = run_with ~engine:`Compiled ~fmt:scratch_fmt printed (fresh ()) in
       fixed && Value.equal a b)

let prop_engines_agree =
  QCheck.Test.make ~name:"compiled and interpreted engines agree" ~count:1000
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun code ->
       let a = run_with ~engine:`Compiled ~fmt:scratch_fmt code (fresh ()) in
       let b = run_with ~engine:`Interp ~fmt:scratch_fmt code (fresh ()) in
       Value.equal a b && Value.conforms (Ptype.Record scratch_fmt) a)

let suite =
  arithmetic_cases @ bitwise_cases @ comparison_cases @ unary_cases @ loop_cases
  @ break_continue_cases @ return_cases @ nested_loop_break_cases @ string_cases
  @ builtin_cases @ cast_cases @ incr_cases @ compound_assign_cases @ array_cases
  @ assignment_as_expression_cases @ coercion_on_field_assign_cases
  @ switch_cases @ switch_fallthrough_cases @ switch_no_match_cases
  @ switch_in_loop_cases @ function_cases @ recursion_cases
  @ mutual_recursion_cases @ void_function_cases @ function_arg_coercion_cases
  @ function_shadow_builtin_cases
  @ [
      Alcotest.test_case "functions: static errors" `Quick test_function_static_errors;
      Alcotest.test_case "switch: static errors" `Quick test_switch_static_errors;
      Alcotest.test_case "division by zero (compiled)" `Quick test_division_by_zero_compiled;
      Alcotest.test_case "division by zero (interp)" `Quick test_division_by_zero_interp;
      Alcotest.test_case "Figure 5 transformation, both engines" `Quick
        test_fig5_transformation_both_engines;
      Helpers.qtest prop_engines_agree;
      Helpers.qtest prop_pp_roundtrip;
    ]
  (* appended, so the indices of the cases above stay put *)
  @ incr_kind_cases @ incr_result_cases @ assign_order_cases @ compound_index_cases
  @ record_copy_cases
  @ [
      Alcotest.test_case "Figure 5 transformation: allocation budget" `Quick
        test_fig5_alloc_budget;
    ]
  @ gap_slot_cases @ read_order_cases
  @ [
      Alcotest.test_case "element stores: a raise midway, both engines" `Quick
        test_group_raise_midway;
      Alcotest.test_case "element stores: index out of range, both engines" `Quick
        test_group_index_out_of_range;
      Alcotest.test_case "element stores: one value for two parameters" `Quick
        test_group_aliased_params;
      Alcotest.test_case "float conditions and bool stores, both engines" `Quick
        test_float_conditions;
    ]
  @ frame_cases
  @ [
      Alcotest.test_case "refused programs: one text, both engines" `Quick test_refused_alike;
      Alcotest.test_case "enum stores: one coercion, both engines" `Quick test_enum_stores_alike;
      Alcotest.test_case "element stores: past the largest array, both engines" `Quick
        test_store_past_largest_array;
    ]
