// smilint phase 1: lexer and symbol index (see index.h).
#include "index.h"

#include <algorithm>
#include <cctype>

namespace smilint {

bool ident_start_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void trim(std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) {
    s.clear();
    return;
  }
  const auto e = s.find_last_not_of(" \t\r\n");
  s = s.substr(b, e - b + 1);
}

/// Parse `smilint: allow(<rule>[,<rule>]) reason=<text>` out of a comment.
/// Malformed rule lists are reported as a reason-less suppression so they
/// surface as S0 findings instead of being silently ignored.
void parse_suppression(std::string_view comment, int line,
                       std::vector<SuppressionDirective>& out) {
  const auto at = comment.find("smilint:");
  if (at == std::string_view::npos) return;
  std::string_view rest = comment.substr(at + 8);
  SuppressionDirective s;
  s.line = line;
  const auto open = rest.find("allow(");
  if (open == std::string_view::npos) return;
  const auto close = rest.find(')', open);
  if (close == std::string_view::npos) {
    out.push_back(std::move(s));  // malformed: no rule list
    return;
  }
  std::string_view list = rest.substr(open + 6, close - open - 6);
  while (!list.empty()) {
    const auto comma = list.find(',');
    std::string one{list.substr(0, comma)};
    trim(one);
    Rule rule;
    if (!one.empty() && parse_rule_id(one, rule)) s.rules.push_back(rule);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  std::string_view after = rest.substr(close + 1);
  const auto r = after.find("reason=");
  if (r != std::string_view::npos) {
    std::string reason{after.substr(r + 7)};
    trim(reason);
    if (!reason.empty()) {
      s.reason = std::move(reason);
      s.has_reason = true;
    }
  }
  out.push_back(std::move(s));
}

/// Parse `guarded_by(<target>)` out of a comment (C1 field annotation).
void parse_guard(std::string_view comment, int line,
                 std::vector<GuardAnnotation>& out) {
  const auto at = comment.find("guarded_by(");
  if (at == std::string_view::npos) return;
  const auto close = comment.find(')', at);
  if (close == std::string_view::npos) return;
  std::string target{comment.substr(at + 11, close - at - 11)};
  trim(target);
  if (target.empty()) return;
  out.push_back({line, std::move(target)});
}

/// Harvest the target of an #include directive line (quotes or angles).
void parse_include(std::string_view directive, std::vector<std::string>& out) {
  const auto inc = directive.find("include");
  if (inc == std::string_view::npos) return;
  std::string_view rest = directive.substr(inc + 7);
  const auto open = rest.find_first_of("\"<");
  if (open == std::string_view::npos) return;
  const char closer = rest[open] == '<' ? '>' : '"';
  const auto close = rest.find(closer, open + 1);
  if (close == std::string_view::npos) return;
  out.emplace_back(rest.substr(open + 1, close - open - 1));
}

}  // namespace

Lexed lex(std::string_view text) {
  Lexed out;
  // Raw source lines for snippets.
  {
    std::size_t start = 0;
    while (start <= text.size()) {
      auto nl = text.find('\n', start);
      if (nl == std::string_view::npos) nl = text.size();
      std::string line{text.substr(start, nl - start)};
      if (!line.empty() && line.back() == '\r') line.pop_back();
      out.lines.push_back(std::move(line));
      if (nl == text.size()) break;
      start = nl + 1;
    }
  }

  std::string code;  // code-only text, literals blanked, one pass
  code.reserve(text.size());
  struct Pos {
    int line;
    int col;
  };
  std::vector<Pos> code_pos;  // source position per code byte
  code_pos.reserve(text.size());
  int line = 1;
  int col = 1;

  std::size_t i = 0;
  const std::size_t n = text.size();
  auto peek = [&](std::size_t k) -> char { return k < n ? text[k] : '\0'; };
  auto advance = [&](std::size_t k) {
    // Move i to k, updating line/col across the skipped span.
    for (; i < k && i < n; ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  bool at_line_start = true;  // only whitespace seen so far on this line
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      code.push_back('\n');
      code_pos.push_back({line, col});
      advance(i + 1);
      at_line_start = true;
      continue;
    }
    if (at_line_start && c == '#') {
      // Preprocessor directive: harvest #include, then drop it (with
      // backslash continuations).
      const std::size_t dstart = i;
      std::size_t j = i;
      while (j < n) {
        if (text[j] == '\\' && j + 1 < n && text[j + 1] == '\n') {
          j += 2;
          continue;
        }
        if (text[j] == '\n') break;
        ++j;
      }
      parse_include(text.substr(dstart, j - dstart), out.includes);
      advance(j);
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) at_line_start = false;
    if (c == '/' && peek(i + 1) == '/') {
      std::size_t j = i + 2;
      while (j < n && text[j] != '\n') ++j;
      const std::string_view comment = text.substr(i + 2, j - i - 2);
      parse_suppression(comment, line, out.suppressions);
      parse_guard(comment, line, out.guards);
      advance(j);
      continue;
    }
    if (c == '/' && peek(i + 1) == '*') {
      std::size_t j = i + 2;
      while (j < n && !(text[j] == '*' && peek(j + 1) == '/')) ++j;
      // The directive anchors to the line the comment ENDS on.
      const std::size_t stop = j < n ? j + 2 : n;
      const std::size_t begin = i;
      advance(stop);
      const std::string_view comment =
          text.substr(begin + 2, (stop >= begin + 4 ? stop - begin - 4 : 0));
      parse_suppression(comment, line, out.suppressions);
      parse_guard(comment, line, out.guards);
      continue;
    }
    if (c == 'R' && peek(i + 1) == '"') {
      // Raw string literal R"delim(...)delim".
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') delim.push_back(text[j++]);
      const std::string closer = ")" + delim + "\"";
      const auto end = text.find(closer, j);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      advance(stop);
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\') ++j;
        if (j < n) ++j;
      }
      advance(j < n ? j + 1 : n);
      continue;
    }
    code.push_back(c);
    code_pos.push_back({line, col});
    advance(i + 1);
  }

  // Tokenize the code-only text.
  std::size_t p = 0;
  const std::size_t m = code.size();
  while (p < m) {
    const char c = code[p];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++p;
      continue;
    }
    const Pos pos = code_pos[p];
    if (ident_start_char(c)) {
      std::size_t q = p;
      while (q < m && ident_char(code[q])) ++q;
      out.tokens.push_back({code.substr(p, q - p), pos.line, pos.col});
      p = q;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t q = p;
      while (q < m && (ident_char(code[q]) || code[q] == '.' ||
                       code[q] == '\'')) {
        ++q;
      }
      p = q;  // numbers never participate in a rule pattern
      continue;
    }
    // Multi-char operators the matchers care about; everything else is a
    // single-char symbol token.
    auto two = [&](char a, char b) {
      return c == a && p + 1 < m && code[p + 1] == b;
    };
    if (two(':', ':') || two('+', '=') || two('-', '=') || two('*', '=') ||
        two('/', '=') || two('-', '>')) {
      out.tokens.push_back({code.substr(p, 2), pos.line, pos.col});
      p += 2;
      continue;
    }
    out.tokens.push_back({std::string(1, c), pos.line, pos.col});
    ++p;
  }
  return out;
}

std::size_t skip_angle_block(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    if (t == ">" && --depth == 0) return i + 1;
    ++i;
  }
  return i;
}

// --- Symbol indexing ---------------------------------------------------------

namespace {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "do",     "else",   "sizeof", "alignof",  "case",   "new",
      "delete", "throw",  "static_assert",      "decltype",
      "alignas", "noexcept",
  };
  return kWords;
}

/// Find the matching close brace for tokens[open] == "{".
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].text == "{") ++depth;
    if (toks[k].text == "}" && --depth == 0) return k;
  }
  return toks.size();
}

/// Find the matching close paren for tokens[open] == "(".
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].text == "(") ++depth;
    if (toks[k].text == ")" && --depth == 0) return k;
  }
  return toks.size();
}

/// After a parameter list's ")", decide whether a function BODY follows.
/// Consumes trailing const/noexcept/override/final/mutable, `-> type`, and
/// constructor member-init lists. Returns the index of the body's "{", or
/// 0 when this is not a definition.
std::size_t find_body_brace(const std::vector<Token>& toks,
                            std::size_t after_params) {
  std::size_t k = after_params;
  const std::size_t n = toks.size();
  auto tok = [&](std::size_t a) -> const std::string& {
    static const std::string empty;
    return a < n ? toks[a].text : empty;
  };
  while (k < n) {
    const std::string& t = tok(k);
    if (t == "const" || t == "override" || t == "final" || t == "mutable" ||
        t == "&" || t == "&&") {
      ++k;
      continue;
    }
    if (t == "noexcept") {
      ++k;
      if (tok(k) == "(") k = match_paren(toks, k) + 1;
      continue;
    }
    if (t == "->") {
      // Trailing return type: consume type tokens (idents, ::, <...>, *, &)
      ++k;
      while (k < n) {
        const std::string& r = tok(k);
        if (r == "<") {
          k = skip_angle_block(toks, k);
          continue;
        }
        if (r == "{" || r == ";") break;
        if (ident_start_char(r[0]) || r == "::" || r == "*" || r == "&") {
          ++k;
          continue;
        }
        return 0;  // unexpected token: not a definition we understand
      }
      continue;
    }
    if (t == ":") {
      // Constructor member-init list: ident ( ... ) or ident { ... },
      // comma-separated, then the body "{".
      ++k;
      while (k < n) {
        if (!ident_start_char(tok(k)[0])) return 0;
        ++k;
        if (tok(k) == "<") k = skip_angle_block(toks, k);
        if (tok(k) == "(") {
          k = match_paren(toks, k) + 1;
        } else if (tok(k) == "{") {
          k = match_brace(toks, k) + 1;
        } else {
          return 0;
        }
        if (tok(k) == ",") {
          ++k;
          continue;
        }
        break;
      }
      continue;
    }
    if (t == "{") return k;
    return 0;  // ";" (declaration) or anything else
  }
  return 0;
}

/// Token kinds that end consideration of `name (` as a function definition
/// head: the identifier is a call/declarator inside an expression if the
/// preceding token is one of these.
bool expression_context(const std::string& prev) {
  if (prev.empty()) return false;
  // After an operator or "=", `name(...)` is a call or a cast.
  static const std::set<std::string> kOps = {
      "=",  "+",  "-", "*", "/", "%", "<", ">",  "!", "?", ":", ",",
      "(",  "[",  "&", "|", "^", ".", "->", "+=", "-=", "*=", "/=",
      "return", "co_return", "throw", "case",
  };
  return kOps.count(prev) > 0;
}

void harvest_functions_and_calls(FileIndex& fi) {
  const std::vector<Token>& toks = fi.lexed.tokens;
  const std::size_t n = toks.size();
  auto tok = [&](std::size_t a) -> const std::string& {
    static const std::string empty;
    return a < n ? toks[a].text : empty;
  };

  // Pass 1: function definitions.
  for (std::size_t i = 0; i < n; ++i) {
    if (!ident_start_char(tok(i)[0])) continue;
    if (control_keywords().count(tok(i)) > 0) continue;
    if (tok(i) == "operator") continue;  // operator overloads: skip
    // Qualified chain: A :: B :: name — walk to the last component.
    std::size_t name_at = i;
    std::string qualified = tok(i);
    std::size_t j = i + 1;
    if (tok(j) == "<") {
      // Possible template-id before ::, e.g. Foo<T>::bar — or a plain
      // comparison; skip_angle_block is bounded either way.
      const std::size_t after = skip_angle_block(toks, j);
      if (tok(after) == "::") j = after;
    }
    while (tok(j) == "::" && j + 1 < n && ident_start_char(tok(j + 1)[0]) &&
           control_keywords().count(tok(j + 1)) == 0 &&
           tok(j + 1) != "operator") {
      qualified += "::" + tok(j + 1);
      name_at = j + 1;
      j += 2;
      if (tok(j) == "<") {
        const std::size_t after = skip_angle_block(toks, j);
        if (tok(after) == "::") j = after;
      }
    }
    if (tok(j) != "(") continue;
    // The token before the head decides expression vs declaration context.
    const std::string& prev = i > 0 ? toks[i - 1].text : tok(n);
    if (expression_context(prev)) continue;
    const std::size_t close = match_paren(toks, j);
    if (close >= n) continue;
    const std::size_t body = find_body_brace(toks, close + 1);
    if (body == 0) continue;
    FunctionDef def;
    def.name = tok(name_at);
    def.qualified = qualified;
    def.line = toks[name_at].line;
    def.col = toks[name_at].col;
    def.body_begin = body;
    def.body_end = match_brace(toks, body);
    fi.functions.push_back(std::move(def));
    // Do NOT skip ahead: member functions defined inside a class body are
    // found by the same scan because their heads are ordinary tokens.
  }
  std::sort(fi.functions.begin(), fi.functions.end(),
            [](const FunctionDef& a, const FunctionDef& b) {
              return a.body_begin < b.body_begin;
            });

  // Pass 2: call sites (identifier followed by "(", not a keyword, not a
  // definition head). Attributed to the innermost enclosing function body.
  auto enclosing = [&](std::size_t t) -> int {
    int best = -1;
    for (std::size_t f = 0; f < fi.functions.size(); ++f) {
      const FunctionDef& d = fi.functions[f];
      if (d.body_begin < t && t < d.body_end) best = static_cast<int>(f);
      if (d.body_begin >= t) break;
    }
    return best;
  };
  std::set<std::size_t> def_heads;
  for (const FunctionDef& d : fi.functions) {
    // Re-locate each definition's name token index by position.
    // (Cheap linear scan avoided: store via matching line/col.)
    (void)d;
  }
  // Mark definition head token indices by re-scanning: a head is the name
  // token whose match produced a recorded body_begin.
  for (const FunctionDef& d : fi.functions) {
    for (std::size_t t = 0; t < n; ++t) {
      if (toks[t].line == d.line && toks[t].col == d.col) {
        def_heads.insert(t);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!ident_start_char(tok(i)[0])) continue;
    if (tok(i + 1) != "(") continue;
    if (control_keywords().count(tok(i)) > 0) continue;
    if (tok(i) == "operator") continue;
    if (def_heads.count(i) > 0) continue;
    CallSite call;
    call.callee = tok(i);
    call.line = toks[i].line;
    call.col = toks[i].col;
    call.token = i;
    call.caller = enclosing(i);
    const std::string& prev = i > 0 ? toks[i - 1].text : tok(n);
    call.member_call = prev == "." || prev == "->";
    fi.calls.push_back(std::move(call));
  }
}

const std::set<std::string>& mutex_types() {
  static const std::set<std::string> kTypes = {
      "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex", "shared_timed_mutex",
  };
  return kTypes;
}

/// Classify and record one field declaration statement (tokens between
/// statement boundaries at class-body depth 1, braces elided).
void record_field(const std::vector<Token>& stmt, ClassInfo& cls) {
  if (stmt.empty()) return;
  const std::string& head = stmt.front().text;
  static const std::set<std::string> kNonField = {
      "using",  "typedef", "friend", "static", "template", "struct",
      "class",  "enum",    "union",  "public", "private",  "protected",
      "explicit",
  };
  if (kNonField.count(head) > 0) return;
  // A top-level "(" (outside <...>) means a function declaration.
  int angle = 0;
  for (const Token& t : stmt) {
    if (t.text == "<") ++angle;
    if (t.text == ">" && angle > 0) --angle;
    if (t.text == "(" && angle == 0) return;
    if (t.text == "operator") return;
  }
  // Truncate at "=" (default member initializer) at angle depth 0.
  std::size_t end = stmt.size();
  angle = 0;
  for (std::size_t k = 0; k < stmt.size(); ++k) {
    if (stmt[k].text == "<") ++angle;
    if (stmt[k].text == ">" && angle > 0) --angle;
    if (stmt[k].text == "=" && angle == 0) {
      end = k;
      break;
    }
  }
  // Strip trailing array extents [N].
  while (end > 0 && (stmt[end - 1].text == "]" || stmt[end - 1].text == "[")) {
    --end;
  }
  if (end == 0) return;
  // The declarator name is the trailing identifier.
  const Token& name_tok = stmt[end - 1];
  if (!ident_start_char(name_tok.text[0])) return;
  static const std::set<std::string> kNotNames = {
      "const", "mutable", "volatile", "int",  "long", "short", "char",
      "bool",  "double",  "float",    "void", "auto", "unsigned", "signed",
  };
  if (kNotNames.count(name_tok.text) > 0) return;
  if (end >= 2 && stmt[end - 2].text == "::") return;  // qualified: not a name

  FieldDecl field;
  field.name = name_tok.text;
  field.line = name_tok.line;
  field.col = name_tok.col;
  angle = 0;
  for (std::size_t k = 0; k + 1 < end; ++k) {
    const std::string& t = stmt[k].text;
    if (t == "<") ++angle;
    if (t == ">" && angle > 0) --angle;
    if (angle > 0) continue;  // template arguments don't classify the field
    if (mutex_types().count(t) > 0) field.is_mutex = true;
    if (t == "condition_variable" || t == "condition_variable_any") {
      field.is_cv = true;
    }
    if (t == "atomic" || t == "atomic_flag") field.is_atomic = true;
    if (t == "const" || t == "constexpr") field.is_const = true;
  }
  if (end >= 2 && (stmt[end - 2].text == "&" || stmt[end - 2].text == "&&")) {
    field.is_reference = true;
  }
  if (field.is_mutex) cls.has_mutex = true;
  cls.fields.push_back(std::move(field));
}

void harvest_classes(FileIndex& fi) {
  const std::vector<Token>& toks = fi.lexed.tokens;
  const std::size_t n = toks.size();
  auto tok = [&](std::size_t a) -> const std::string& {
    static const std::string empty;
    return a < n ? toks[a].text : empty;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (tok(i) != "class" && tok(i) != "struct") continue;
    if (i > 0 && (toks[i - 1].text == "enum" || toks[i - 1].text == "<" ||
                  toks[i - 1].text == ",")) {
      continue;  // enum class / template parameter
    }
    // Name (possibly qualified: struct SweepService::Impl { ... }).
    std::size_t j = i + 1;
    if (!ident_start_char(tok(j)[0])) continue;  // anonymous
    std::string name = tok(j);
    int line = toks[j].line;
    ++j;
    while (tok(j) == "::" && ident_start_char(tok(j + 1)[0])) {
      name = tok(j + 1);
      line = toks[j + 1].line;
      j += 2;
    }
    if (tok(j) == "<") j = skip_angle_block(toks, j);  // specialization
    if (tok(j) == "final") ++j;
    if (tok(j) == ":") {
      // Base clause: consume until the body "{".
      while (j < n && tok(j) != "{" && tok(j) != ";") {
        if (tok(j) == "<") {
          j = skip_angle_block(toks, j);
          continue;
        }
        ++j;
      }
    }
    if (tok(j) != "{") continue;  // forward declaration or not a class
    ClassInfo cls;
    cls.name = std::move(name);
    cls.line = line;
    cls.body_begin = j;
    cls.body_end = match_brace(toks, j);

    // Field statements at depth 1 of the class body.
    std::vector<Token> stmt;
    std::size_t k = j + 1;
    while (k < cls.body_end) {
      const std::string& t = tok(k);
      if (t == "{") {
        // Nested braces: member function body, nested class body, or a
        // brace initializer. Skip balanced; if a ";" follows it was part
        // of a declaration statement (brace-init or nested class) —
        // nested classes are harvested by their own "class/struct" scan
        // and filtered by record_field's head check.
        const std::size_t close = match_brace(toks, k);
        k = close + 1;
        if (tok(k) == ";") {
          stmt.push_back({";", 0, 0});  // force statement end below
          continue;
        }
        stmt.clear();  // function body: whole statement was its head
        continue;
      }
      if (t == ";") {
        record_field(stmt, cls);
        stmt.clear();
        ++k;
        continue;
      }
      if (t == ":" && !stmt.empty() &&
          (stmt.back().text == "public" || stmt.back().text == "private" ||
           stmt.back().text == "protected")) {
        stmt.clear();  // access specifier
        ++k;
        continue;
      }
      stmt.push_back(toks[k]);
      ++k;
    }

    // Attach guarded_by annotations. Each annotation binds to exactly one
    // field: the one declared on its own line if any, else the one on the
    // next line (standalone-comment form). Same-line-first keeps an
    // inline annotation from bleeding onto the following declaration.
    for (const GuardAnnotation& g : fi.lexed.guards) {
      FieldDecl* target = nullptr;
      for (FieldDecl& f : cls.fields) {
        if (f.line == g.line) {
          target = &f;
          break;
        }
      }
      if (target == nullptr) {
        for (FieldDecl& f : cls.fields) {
          if (f.line == g.line + 1) {
            target = &f;
            break;
          }
        }
      }
      if (target != nullptr && !target->has_guard) {
        target->has_guard = true;
        target->guard = g.target;
      }
    }
    fi.classes.push_back(std::move(cls));
  }
}

}  // namespace

FileIndex index_file(const std::string& path, std::string_view text) {
  FileIndex fi;
  fi.path = path;
  fi.lexed = lex(text);
  harvest_functions_and_calls(fi);
  harvest_classes(fi);
  return fi;
}

void SourceIndex::link() {
  functions_by_name.clear();
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (std::size_t d = 0; d < files[f].functions.size(); ++d) {
      functions_by_name[files[f].functions[d].name].emplace_back(
          static_cast<int>(f), static_cast<int>(d));
    }
  }
}

const FileIndex* SourceIndex::find(std::string_view path) const {
  for (const FileIndex& fi : files) {
    if (fi.path == path) return &fi;
  }
  return nullptr;
}

}  // namespace smilint
