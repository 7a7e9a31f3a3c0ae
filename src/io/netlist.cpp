#include "io/netlist.hpp"

#include "io/sha256.hpp"
#include "util/file.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace gfi::io {

namespace {

using digital::GateKind;

std::string toUpper(std::string s)
{
    for (char& c : s) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return s;
}

/// Gate keyword lookup shared by both grammars (bench spellings, upper-case).
bool gateKindFromKeyword(const std::string& upper, GateKind& out)
{
    static const std::map<std::string, GateKind> kinds{
        {"AND", GateKind::And},   {"OR", GateKind::Or},     {"NAND", GateKind::Nand},
        {"NOR", GateKind::Nor},   {"XOR", GateKind::Xor},   {"XNOR", GateKind::Xnor},
        {"NOT", GateKind::Not},   {"INV", GateKind::Not},   {"BUF", GateKind::Buf},
        {"BUFF", GateKind::Buf},
    };
    const auto it = kinds.find(upper);
    if (it == kinds.end()) {
        return false;
    }
    out = it->second;
    return true;
}

bool validNetChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' ||
           c == '$' || c == '[' || c == ']' || c == '-';
}

bool validNetName(const std::string& s)
{
    return !s.empty() && std::all_of(s.begin(), s.end(), validNetChar);
}

/// Arity contract per gate kind: Buf/Not take exactly one input, the
/// multi-input kinds at least two.
void checkArity(const std::string& source, int line, GateKind kind, std::size_t n)
{
    const bool unary = kind == GateKind::Buf || kind == GateKind::Not;
    if (unary && n != 1) {
        throw NetlistParseError(source, line,
                                std::string(gateKeyword(kind)) + " takes exactly one input, got " +
                                    std::to_string(n));
    }
    if (!unary && n < 2) {
        throw NetlistParseError(source, line,
                                std::string(gateKeyword(kind)) + " needs at least two inputs, got " +
                                    std::to_string(n));
    }
}

/// Shared post-parse validation: every net driven exactly once, every
/// referenced net known, every declared output driven.
void validate(const std::string& source, NetlistDesc& desc)
{
    if (desc.inputs.empty()) {
        throw NetlistParseError(source, 0, "netlist declares no primary inputs");
    }
    if (desc.outputs.empty()) {
        throw NetlistParseError(source, 0, "netlist declares no primary outputs");
    }
    std::set<std::string> driven;
    for (const std::string& in : desc.inputs) {
        if (!driven.insert(in).second) {
            throw NetlistParseError(source, 0, "input '" + in + "' declared twice");
        }
    }
    for (const NetlistGate& g : desc.gates) {
        if (!driven.insert(g.output).second) {
            throw NetlistParseError(source, 0,
                                    "net '" + g.output +
                                        "' is driven twice (gate output collides with an "
                                        "earlier driver)");
        }
    }
    for (const NetlistGate& g : desc.gates) {
        for (const std::string& in : g.inputs) {
            if (driven.count(in) == 0) {
                throw NetlistParseError(source, 0,
                                        "gate '" + g.name + "' reads undriven net '" + in + "'");
            }
            if (in == g.output) {
                throw NetlistParseError(source, 0,
                                        "gate '" + g.name + "' feeds its own output net '" +
                                            in + "'");
            }
        }
    }
    std::set<std::string> seenOutputs;
    for (const std::string& out : desc.outputs) {
        if (driven.count(out) == 0) {
            throw NetlistParseError(source, 0, "primary output '" + out + "' is never driven");
        }
        if (!seenOutputs.insert(out).second) {
            throw NetlistParseError(source, 0, "output '" + out + "' declared twice");
        }
    }
}

// --- ISCAS-85 bench grammar -------------------------------------------------

/// Circuit-name form of a source name: directory and extension stripped, so
/// parseNetlist(text, "designs/c17.bench") and the same text parsed from a
/// plain "c17" agree on the name (and hence the digest).
std::string stemOf(const std::string& source)
{
    std::string stem = source;
    if (const auto slash = stem.find_last_of("/\\"); slash != std::string::npos) {
        stem.erase(0, slash + 1);
    }
    if (const auto dot = stem.find_last_of('.'); dot != std::string::npos && dot > 0) {
        stem.erase(dot);
    }
    return stem.empty() ? source : stem;
}

NetlistDesc parseBench(const std::string& text, const std::string& source)
{
    NetlistDesc desc;
    desc.name = stemOf(source);
    std::istringstream stream(text);
    std::string rawLine;
    int lineNo = 0;
    while (std::getline(stream, rawLine)) {
        ++lineNo;
        std::string line = rawLine;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        // Trim.
        const auto notSpace = [](unsigned char c) { return std::isspace(c) == 0; };
        line.erase(line.begin(), std::find_if(line.begin(), line.end(), notSpace));
        line.erase(std::find_if(line.rbegin(), line.rend(), notSpace).base(), line.end());
        if (line.empty()) {
            continue;
        }

        // INPUT(x) / OUTPUT(x)
        const auto paren = line.find('(');
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            if (paren == std::string::npos || line.back() != ')') {
                throw NetlistParseError(source, lineNo, "expected INPUT(...), OUTPUT(...) or "
                                                        "'net = GATE(...)'");
            }
            const std::string keyword = toUpper(line.substr(0, paren));
            std::string net = line.substr(paren + 1, line.size() - paren - 2);
            net.erase(std::remove_if(net.begin(), net.end(),
                                     [](unsigned char c) { return std::isspace(c) != 0; }),
                      net.end());
            if (!validNetName(net)) {
                throw NetlistParseError(source, lineNo, "bad net name '" + net + "'");
            }
            if (keyword == "INPUT") {
                desc.inputs.push_back(net);
            } else if (keyword == "OUTPUT") {
                desc.outputs.push_back(net);
            } else {
                throw NetlistParseError(source, lineNo, "unknown keyword '" + keyword + "'");
            }
            continue;
        }

        // net = GATE(in, ...)
        std::string out = line.substr(0, eq);
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [](unsigned char c) { return std::isspace(c) != 0; }),
                  out.end());
        if (!validNetName(out)) {
            throw NetlistParseError(source, lineNo, "bad net name '" + out + "'");
        }
        const auto open = line.find('(', eq);
        if (open == std::string::npos || line.back() != ')') {
            throw NetlistParseError(source, lineNo, "expected 'net = GATE(in, ...)'");
        }
        std::string keyword = line.substr(eq + 1, open - eq - 1);
        keyword.erase(std::remove_if(keyword.begin(), keyword.end(),
                                     [](unsigned char c) { return std::isspace(c) != 0; }),
                      keyword.end());
        GateKind kind{};
        if (!gateKindFromKeyword(toUpper(keyword), kind)) {
            throw NetlistParseError(source, lineNo, "unknown gate '" + keyword + "'");
        }
        NetlistGate gate;
        gate.kind = kind;
        gate.output = out;
        gate.name = "g_" + out;
        std::string args = line.substr(open + 1, line.size() - open - 2);
        std::istringstream argStream(args);
        std::string arg;
        while (std::getline(argStream, arg, ',')) {
            arg.erase(std::remove_if(arg.begin(), arg.end(),
                                     [](unsigned char c) { return std::isspace(c) != 0; }),
                      arg.end());
            if (!validNetName(arg)) {
                throw NetlistParseError(source, lineNo, "bad input net '" + arg + "'");
            }
            gate.inputs.push_back(arg);
        }
        checkArity(source, lineNo, kind, gate.inputs.size());
        desc.gates.push_back(std::move(gate));
    }
    validate(source, desc);
    return desc;
}

// --- structural-Verilog subset ----------------------------------------------

/// A token with its source line (for error messages).
struct Token {
    std::string text;
    int line = 0;
};

std::vector<Token> tokenizeVerilog(const std::string& text, const std::string& source)
{
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            while (i < n && text[i] != '\n') {
                ++i;
            }
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n') {
                    ++line;
                }
                ++i;
            }
            if (i + 1 >= n) {
                throw NetlistParseError(source, line, "unterminated block comment");
            }
            i += 2;
            continue;
        }
        if (c == '(' || c == ')' || c == ',' || c == ';') {
            tokens.push_back(Token{std::string(1, c), line});
            ++i;
            continue;
        }
        if (validNetChar(c)) {
            std::size_t j = i;
            while (j < n && validNetChar(text[j])) {
                ++j;
            }
            tokens.push_back(Token{text.substr(i, j - i), line});
            i = j;
            continue;
        }
        throw NetlistParseError(source, line, std::string("unexpected character '") + c + "'");
    }
    return tokens;
}

class VerilogParser {
public:
    VerilogParser(std::vector<Token> tokens, std::string source)
        : tokens_(std::move(tokens)), source_(std::move(source))
    {
    }

    NetlistDesc parse()
    {
        expectKeyword("module");
        desc_.name = expectName("module name");
        if (peekIs("(")) {
            take();
            while (!peekIs(")")) {
                expectName("port name");
                if (peekIs(",")) {
                    take();
                }
            }
            take(); // ')'
        }
        expect(";");

        while (!peekIs("endmodule")) {
            const Token& t = peek();
            if (t.text == "input") {
                take();
                declList(desc_.inputs);
            } else if (t.text == "output") {
                take();
                declList(desc_.outputs);
            } else if (t.text == "wire") {
                take();
                std::vector<std::string> wires;
                declList(wires); // declaration only; driven-ness is validated later
            } else {
                gateInstance();
            }
        }
        take(); // 'endmodule'
        if (pos_ != tokens_.size()) {
            throw NetlistParseError(source_, peek().line,
                                    "unexpected '" + peek().text + "' after endmodule "
                                    "(one module per file)");
        }
        validate(source_, desc_);
        return std::move(desc_);
    }

private:
    [[nodiscard]] const Token& peek() const
    {
        if (pos_ >= tokens_.size()) {
            throw NetlistParseError(source_, lastLine_, "unexpected end of file");
        }
        return tokens_[pos_];
    }

    [[nodiscard]] bool peekIs(const std::string& text) const
    {
        return pos_ < tokens_.size() && tokens_[pos_].text == text;
    }

    const Token& take()
    {
        const Token& t = peek();
        lastLine_ = t.line;
        ++pos_;
        return t;
    }

    void expect(const std::string& text)
    {
        const Token& t = take();
        if (t.text != text) {
            throw NetlistParseError(source_, t.line,
                                    "expected '" + text + "', got '" + t.text + "'");
        }
    }

    void expectKeyword(const std::string& keyword)
    {
        const Token& t = take();
        if (t.text != keyword) {
            throw NetlistParseError(source_, t.line,
                                    "expected '" + keyword + "', got '" + t.text + "'");
        }
    }

    std::string expectName(const char* what)
    {
        const Token& t = take();
        if (!validNetName(t.text)) {
            throw NetlistParseError(source_, t.line,
                                    std::string("expected ") + what + ", got '" + t.text + "'");
        }
        return t.text;
    }

    /// "a, b, c ;" — appends each declared name to @p into.
    void declList(std::vector<std::string>& into)
    {
        while (true) {
            into.push_back(expectName("net name"));
            if (peekIs(",")) {
                take();
                continue;
            }
            expect(";");
            return;
        }
    }

    /// "kind [name] ( out , in... ) ;"
    void gateInstance()
    {
        const Token& kindTok = take();
        GateKind kind{};
        if (!gateKindFromKeyword(toUpper(kindTok.text), kind)) {
            throw NetlistParseError(source_, kindTok.line,
                                    "unknown statement or gate primitive '" + kindTok.text +
                                        "' (supported: and nand or nor xor xnor not buf, "
                                        "input/output/wire declarations)");
        }
        NetlistGate gate;
        gate.kind = kind;
        if (!peekIs("(")) {
            gate.name = expectName("instance name");
        }
        const int line = peek().line;
        expect("(");
        std::vector<std::string> ports;
        while (true) {
            ports.push_back(expectName("port net"));
            if (peekIs(",")) {
                take();
                continue;
            }
            expect(")");
            break;
        }
        expect(";");
        if (ports.size() < 2) {
            throw NetlistParseError(source_, line, "gate instance needs an output and at "
                                                   "least one input");
        }
        gate.output = ports.front();
        gate.inputs.assign(ports.begin() + 1, ports.end());
        if (gate.name.empty()) {
            gate.name = "g_" + gate.output;
        }
        checkArity(source_, line, kind, gate.inputs.size());
        desc_.gates.push_back(std::move(gate));
    }

    std::vector<Token> tokens_;
    std::string source_;
    NetlistDesc desc_;
    std::size_t pos_ = 0;
    int lastLine_ = 0;
};

} // namespace

const char* gateKeyword(GateKind kind) noexcept
{
    switch (kind) {
    case GateKind::And:
        return "AND";
    case GateKind::Or:
        return "OR";
    case GateKind::Nand:
        return "NAND";
    case GateKind::Nor:
        return "NOR";
    case GateKind::Xor:
        return "XOR";
    case GateKind::Xnor:
        return "XNOR";
    case GateKind::Not:
        return "NOT";
    case GateKind::Buf:
        return "BUF";
    }
    return "?";
}

NetlistParseError::NetlistParseError(const std::string& source, int line,
                                     const std::string& reason)
    : std::runtime_error(source + (line > 0 ? ":" + std::to_string(line) : "") + ": " + reason),
      line_(line)
{
}

std::vector<std::string> NetlistDesc::nets() const
{
    // Inputs keep declaration order (it assigns pattern bits); gate outputs
    // are enumerated in canonical (sorted) order so that two netlists with
    // the same digest elaborate — and campaign — identically regardless of
    // the order their files list the gates in.
    std::vector<std::string> all = inputs;
    std::vector<std::string> outs;
    outs.reserve(gates.size());
    for (const NetlistGate& g : gates) {
        outs.push_back(g.output);
    }
    std::sort(outs.begin(), outs.end());
    all.insert(all.end(), outs.begin(), outs.end());
    return all;
}

std::string NetlistDesc::canonicalText() const
{
    // Input/output declaration order is semantic (pattern-bit and report
    // assignment) and preserved; gate order and commutative gate-input order
    // are free and therefore sorted. Instance names are excluded: they name
    // the same circuit.
    std::ostringstream out;
    out << "circuit " << name << "\n";
    out << "inputs";
    for (const std::string& in : inputs) {
        out << ' ' << in;
    }
    out << "\noutputs";
    for (const std::string& o : outputs) {
        out << ' ' << o;
    }
    out << "\n";
    std::vector<const NetlistGate*> sorted;
    sorted.reserve(gates.size());
    for (const NetlistGate& g : gates) {
        sorted.push_back(&g);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const NetlistGate* a, const NetlistGate* b) { return a->output < b->output; });
    for (const NetlistGate* g : sorted) {
        std::vector<std::string> ins = g->inputs;
        std::sort(ins.begin(), ins.end());
        out << "gate " << gateKeyword(g->kind) << ' ' << g->output;
        for (const std::string& in : ins) {
            out << ' ' << in;
        }
        out << "\n";
    }
    return out.str();
}

std::string NetlistDesc::digest() const
{
    return sha256Hex(canonicalText());
}

NetlistDesc parseNetlist(const std::string& text, const std::string& sourceName,
                         NetlistFormat format)
{
    if (format == NetlistFormat::Auto) {
        // A bench file has no 'module' statement; detect on the first token.
        std::istringstream probe(text);
        std::string word;
        format = NetlistFormat::Bench;
        while (probe >> word) {
            if (word[0] == '#') {
                probe.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
                continue;
            }
            if (word.rfind("//", 0) == 0) {
                probe.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
                continue;
            }
            if (word == "module") {
                format = NetlistFormat::Verilog;
            }
            break;
        }
    }
    if (format == NetlistFormat::Verilog) {
        return VerilogParser(tokenizeVerilog(text, sourceName), sourceName).parse();
    }
    return parseBench(text, sourceName);
}

NetlistDesc parseNetlistFile(const std::string& path)
{
    const std::string text = util::readFileOrThrow(path, "netlist file");

    // Stem of the path: circuit-name fallback and error-message source.
    std::string stem = path;
    if (const auto slash = stem.find_last_of("/\\"); slash != std::string::npos) {
        stem.erase(0, slash + 1);
    }
    NetlistFormat format = NetlistFormat::Auto;
    if (const auto dot = stem.find_last_of('.'); dot != std::string::npos) {
        const std::string ext = stem.substr(dot + 1);
        if (ext == "v" || ext == "sv") {
            format = NetlistFormat::Verilog;
        } else if (ext == "bench") {
            format = NetlistFormat::Bench;
        }
        stem.erase(dot);
    }
    return parseNetlist(text, stem, format);
}

} // namespace gfi::io
