#include "scenario/expression.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xl::scenario {
namespace {

// Recursive-descent parser over the classic three-level grammar:
//   expr   := term (('+' | '-') term)*
//   term   := factor (('*' | '/' | '%') factor)*
//   factor := number | '(' expr ')' | ('+' | '-') factor
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  double parse() {
    const double value = expr();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Quote a bounded prefix: a pathological value can be megabytes long.
    constexpr std::size_t kQuoteMax = 80;
    const std::string quoted = text_.size() <= kQuoteMax
                                   ? std::string(text_)
                                   : std::string(text_.substr(0, kQuoteMax)) + "...";
    throw std::invalid_argument("expression '" + quoted + "': " + what +
                                " at position " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expr() {
    double value = term();
    for (;;) {
      if (eat('+')) {
        value += term();
      } else if (eat('-')) {
        value -= term();
      } else {
        return value;
      }
    }
  }

  double term() {
    double value = factor();
    for (;;) {
      if (eat('*')) {
        value *= factor();
      } else if (eat('/')) {
        const double rhs = factor();
        if (rhs == 0.0) fail("division by zero");
        value /= rhs;
      } else if (eat('%')) {
        const double rhs = factor();
        if (rhs == 0.0) fail("modulo by zero");
        value = std::fmod(value, rhs);
      } else {
        return value;
      }
    }
  }

  double factor() {
    // Every '(' and unary sign recurses through here: the innermost factor
    // of n nested levels is entered with depth_ == n.
    if (depth_ > kMaxExpressionDepth) {
      fail("nesting deeper than " + std::to_string(kMaxExpressionDepth) + " levels");
    }
    ++depth_;
    skip_ws();
    double value = 0.0;
    if (eat('(')) {
      value = expr();
      if (!eat(')')) fail("missing ')'");
    } else if (eat('-')) {
      value = -factor();
    } else if (eat('+')) {
      value = factor();
    } else {
      value = number();
    }
    --depth_;
    return value;
  }

  double number() {
    skip_ws();
    if (pos_ >= text_.size()) fail("expected a number");
    // Copy only the characters a literal can span — alphanumerics, '.', and
    // a sign right after an exponent marker — so each literal costs its own
    // length and a flat sum of n literals parses in O(n). strtod/strtoull
    // still decide where the literal ends.
    std::size_t stop = pos_;
    while (stop < text_.size()) {
      const char c = text_[stop];
      const bool exponent_sign = (c == '+' || c == '-') && stop > pos_ &&
                                 (text_[stop - 1] == 'e' || text_[stop - 1] == 'E');
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && !exponent_sign) {
        break;
      }
      ++stop;
    }
    const std::string literal(text_.substr(pos_, stop - pos_));
    char* end = nullptr;
    double value = 0.0;
    if (literal.size() > 2 && literal[0] == '0' &&
        (literal[1] == 'x' || literal[1] == 'X')) {
      // Hex literals (scenario seeds) go through strtoull so 64-bit seeds
      // round-trip; the double conversion is exact up to 2^53, far beyond
      // any knob that is not a seed (seeds are re-read as integers by the
      // document layer).
      value = static_cast<double>(std::strtoull(literal.c_str(), &end, 16));
    } else {
      value = std::strtod(literal.c_str(), &end);
    }
    if (end == literal.c_str()) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - literal.c_str());
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Enclosing '(' and unary-sign levels.
};

}  // namespace

double eval_expression(std::string_view text) { return Parser(text).parse(); }

bool looks_numeric(std::string_view text) {
  // A numeric term starts with a digit, a sign, a dot, or '('; everything
  // else is a bare string (backend names, model names, csv words).
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-' ||
        c == '.' || c == '(') {
      try {
        (void)eval_expression(text);
        return true;
      } catch (const std::invalid_argument&) {
        return false;
      }
    }
    return false;
  }
  return false;
}

}  // namespace xl::scenario
