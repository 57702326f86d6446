// Numeric expression grammar of the scenario DSL.
//
// A deliberately small evaluator in the spirit of OMNeT++'s NED expression
// language (expression.y), covering what declarative workload files need:
// decimal and hex literals, the four arithmetic operators plus modulo,
// unary sign, and parentheses. Variables are not resolved here — the
// document layer substitutes ${var} references textually before the value
// reaches this evaluator, so every input is a closed arithmetic term.
//
//   eval_expression("2 * (5 + 1)")   == 12.0
//   eval_expression("0xC0FFEE")      == 12648430.0
//   eval_expression("3 % 2 - 0.5")   == 0.5
//
// Errors (stray characters, unbalanced parentheses, division by zero,
// nesting deeper than kMaxExpressionDepth) throw std::invalid_argument
// quoting the offending expression.
#pragma once

#include <cstddef>
#include <string_view>

namespace xl::scenario {

/// Deepest nesting of parentheses and unary signs the evaluator accepts.
/// The parser recurses once per level, so the bound keeps a hostile
/// scenario value from overflowing the stack.
inline constexpr std::size_t kMaxExpressionDepth = 256;

/// Evaluate one arithmetic expression. Throws std::invalid_argument on any
/// syntax error, naming the expression text and the position.
[[nodiscard]] double eval_expression(std::string_view text);

/// True when `text` lexes as a plain number or arithmetic term (the
/// document layer uses this to decide whether a value is numeric or a
/// bare string, without throwing on ordinary words).
[[nodiscard]] bool looks_numeric(std::string_view text);

}  // namespace xl::scenario
