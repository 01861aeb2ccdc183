(* Tests for the table renderer and the paper-table reproductions. *)

open Storage_report
open Helpers

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_render_basic () =
  let out =
    Table.render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  Alcotest.(check string) "header" "a    bb" (List.nth lines 0);
  Alcotest.(check string) "rule" "---  --" (List.nth lines 1);
  Alcotest.(check string) "row" "1    2" (List.nth lines 2);
  Alcotest.(check string) "wide row" "333  4" (List.nth lines 3)

let test_render_alignment () =
  let out =
    Table.render ~headers:[ "n" ] ~aligns:[ Table.Right ] [ [ "7" ]; [ "42" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "right-aligned" " 7" (List.nth lines 2)

let test_render_title_and_padding () =
  let out = Table.render ~title:"T" ~headers:[ "x"; "y" ] [ [ "only" ] ] in
  Alcotest.(check bool) "title first" true (String.length out > 0 && out.[0] = 'T');
  Alcotest.(check bool) "short row padded" true (contains out "only")

let test_render_rejects_wide_rows () =
  check_raises_invalid "row wider than header" (fun () ->
      Table.render ~headers:[ "a" ] [ [ "1"; "2" ] ])

let test_metric_formats () =
  let open Storage_units in
  Alcotest.(check string) "hours" "26.4" (Metric.hours (Duration.hours 26.4));
  Alcotest.(check string) "percent" "87.3%" (Metric.percent 0.873);
  Alcotest.(check string) "money" "$0.97M" (Metric.money_m (Money.of_millions 0.97));
  Alcotest.(check string) "tib" "51.8" (Metric.tib (Size.gib (39. *. 1360.)))

(* --- paper table reproductions contain the headline cells --- *)

let test_table5_cells () =
  let t = Storage_presets.Paper_tables.table5 () in
  List.iter
    (fun cell ->
      if not (contains t cell) then Alcotest.failf "missing %S" cell)
    [ "14.6%"; "72.8%"; "0.2%"; "0.6%"; "1.6%"; "2.4%"; "3.4%"; "87.3%"; "51.8" ]

let test_table6_cells () =
  let t = Storage_presets.Paper_tables.table6 () in
  List.iter
    (fun cell ->
      if not (contains t cell) then Alcotest.failf "missing %S" cell)
    [ "split mirror"; "backup"; "vaulting"; "12.0 hr"; "217.0 hr"; "1429.0 hr"; "0.004 s" ]

let test_table7_cells () =
  let t = Storage_presets.Paper_tables.table7 () in
  List.iter
    (fun cell ->
      if not (contains t cell) then Alcotest.failf "missing %S" cell)
    [ "weekly vault"; "asyncB mirror, 1 link"; "253.0 hr"; "73.0 hr"; "37.0 hr"; "0.03 hr" ]

let test_figures_render () =
  List.iter
    (fun f -> Alcotest.(check bool) "non-empty" true (String.length (f ()) > 100))
    [
      Storage_presets.Paper_tables.figure1;
      Storage_presets.Paper_tables.figure2;
      Storage_presets.Paper_tables.figure3;
      Storage_presets.Paper_tables.figure4;
      Storage_presets.Paper_tables.figure5;
      Storage_presets.Paper_tables.table2;
      Storage_presets.Paper_tables.table3;
      Storage_presets.Paper_tables.table4;
    ]

(* --- Json --- *)

let test_json_scalars () =
  let open Json in
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "42" (to_string (Int 42));
  Alcotest.(check string) "float" "1.5" (to_string (Float 1.5));
  Alcotest.(check string) "integral float" "217.0" (to_string (Float 217.));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "string" "\"hi\"" (to_string (String "hi"))

let test_json_escaping () =
  let open Json in
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (to_string (String "a\"b\\c"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (to_string (String "a\nb"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (to_string (String "\001"))

let test_json_structures () =
  let open Json in
  Alcotest.(check string) "empty" "[]" (to_string (List []));
  Alcotest.(check string) "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
  Alcotest.(check string) "object" "{\"a\":1}" (to_string (Obj [ ("a", Int 1) ]));
  let pretty = to_string_pretty (Obj [ ("a", List [ Int 1 ]) ]) in
  Alcotest.(check bool) "pretty is multiline" true (String.contains pretty '\n')

(* The renderer's exact bytes, compact and pretty, for the values whose
   formatting is easy to get subtly wrong: integral floats near the 1e15
   switch, [%.12g] rounding up to an integer without a trailing dot,
   subnormals, non-finite floats, [min_int], every control byte, and
   indentation of empty and nested containers. *)
let test_json_bytes_pinned () =
  let open Json in
  let same text = (text, text) in
  List.iter
    (fun (label, v, (compact, pretty)) ->
      Alcotest.(check string) (label ^ " (compact)") compact (to_string v);
      Alcotest.(check string) (label ^ " (pretty)") pretty (to_string_pretty v))
    [
      ("-0.0", Float (-0.0), same "-0.0");
      ("0.0", Float 0.0, same "0.0");
      ("999999999999999.", Float 999999999999999., same "999999999999999.0");
      ("1e15", Float 1e15, same "1e+15");
      ("-1e15", Float (-1e15), same "-1e+15");
      ("99999999999.99999", Float 99999999999.99999, same "100000000000");
      ("0.1", Float 0.1, same "0.1");
      ("1/3", Float (1. /. 3.), same "0.333333333333");
      ("5e-324", Float 5e-324, same "4.94065645841e-324");
      ("max_float", Float max_float, same "1.79769313486e+308");
      ("nan", Float Float.nan, same "null");
      ("infinity", Float Float.infinity, same "null");
      ("neg_infinity", Float Float.neg_infinity, same "null");
      ("min_int", Int min_int, same "-4611686018427387904");
      ( "bytes 0x00-0x1f",
        String (String.init 32 Char.chr),
        same
          "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
      );
      ( "quote, backslash, 0x7f, UTF-8",
        String "\"\\\127caf\xc3\xa9 \xe6\x97\xa5",
        same "\"\\\"\\\\\127caf\195\169 \230\151\165\"" );
      ("empty list", List [], same "[]");
      ("empty object", Obj [], same "{}");
      ( "nested",
        Obj
          [
            ("a", List [ Int 1; List []; Obj [] ]);
            ("b\n", Obj [ ("c", List [ Obj [ ("d", Null) ]; Bool false ]) ]);
            ("e", String "");
          ],
        ( "{\"a\":[1,[],{}],\"b\\n\":{\"c\":[{\"d\":null},false]},\"e\":\"\"}",
          "{\n  \"a\": [\n    1,\n    [],\n    {}\n  ],\n  \"b\\n\": {\n    \"c\": [\n      {\n        \"d\": null\n      },\n      false\n    ]\n  },\n  \"e\": \"\"\n}"
        ) );
      ( "list of lists",
        List [ List [ List [ Int 1 ] ]; Float 2.5 ],
        ( "[[[1]],2.5]",
          "[\n  [\n    [\n      1\n    ]\n  ],\n  2.5\n]" ) );
    ]

let test_json_report_fields () =
  let r =
    Storage_model.Evaluate.run Storage_presets.Baseline.design
      Storage_presets.Baseline.scenario_array
  in
  let s = Json.to_string (Storage_model.Json_output.report r) in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "json missing %S" needle)
    [
      "\"design\":\"baseline\"";
      "\"source_level\":2";
      "\"seconds\":781200.0";
      "\"meets_rto\":null";
      "\"overcommitted\":false";
    ]

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "basic rendering" `Quick test_render_basic;
        Alcotest.test_case "alignment" `Quick test_render_alignment;
        Alcotest.test_case "title and padding" `Quick test_render_title_and_padding;
        Alcotest.test_case "wide rows rejected" `Quick test_render_rejects_wide_rows;
        Alcotest.test_case "metric formats" `Quick test_metric_formats;
        Alcotest.test_case "Table 5 headline cells" `Quick test_table5_cells;
        Alcotest.test_case "Table 6 headline cells" `Quick test_table6_cells;
        Alcotest.test_case "Table 7 headline cells" `Quick test_table7_cells;
        Alcotest.test_case "all artifacts render" `Quick test_figures_render;
        Alcotest.test_case "json scalars" `Quick test_json_scalars;
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
        Alcotest.test_case "json structures" `Quick test_json_structures;
        Alcotest.test_case "json bytes pinned" `Quick test_json_bytes_pinned;
        Alcotest.test_case "json evaluation report" `Quick
          test_json_report_fields;
      ] );
  ]
