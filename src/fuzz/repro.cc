#include "fuzz/repro.hh"

#include "base/json.hh"
#include "program/ir_json.hh"

namespace dvi
{
namespace fuzz
{

std::string
reproToJson(const Repro &r)
{
    json::Value root = json::Value::object();
    root.set("dvi-fuzz-repro", json::Value(std::uint64_t(1)));
    root.set("seed", json::Value(r.seed));
    root.set("programIndex", json::Value(r.programIndex));
    root.set("failure", json::Value(r.failure));

    json::Value oracle = json::Value::object();
    oracle.set("maxProgInsts", json::Value(r.oracle.maxProgInsts));
    oracle.set("lvmStackDepth",
               json::Value(std::uint64_t(r.oracle.lvmStackDepth)));
    oracle.set("staticCheck", json::Value(r.oracle.staticCheck));
    oracle.set("runDense", json::Value(r.oracle.runDense));
    oracle.set("runCore", json::Value(r.oracle.runCore));
    root.set("oracle", std::move(oracle));

    if (r.oracle.fault.enabled) {
        json::Value fault = json::Value::object();
        fault.set("killOrdinal",
                  json::Value(
                      std::uint64_t(r.oracle.fault.killOrdinal)));
        fault.set("reg",
                  json::Value(std::uint64_t(r.oracle.fault.reg)));
        root.set("fault", std::move(fault));
    } else {
        root.set("fault", json::Value());
    }

    root.set("program", prog::moduleToJson(r.program));
    return root.dump(2) + "\n";
}

std::string
reproFromJson(const std::string &text, Repro &out)
{
    const json::ParseResult parsed = json::parse(text);
    if (!parsed.ok())
        return parsed.error;
    const json::Value &root = parsed.value;
    if (!root.isObject() || !root.find("dvi-fuzz-repro"))
        return "not a dvi-fuzz repro manifest";

    out = Repro{};
    const json::Value *seed = root.find("seed");
    if (!seed || !seed->isU64())
        return "missing seed";
    out.seed = seed->u64();
    const json::Value *idx = root.find("programIndex");
    if (!idx || !idx->isU64())
        return "missing programIndex";
    out.programIndex = idx->u64();
    const json::Value *failure = root.find("failure");
    if (!failure || !failure->isString())
        return "missing failure";
    out.failure = failure->str();

    const json::Value *oracle = root.find("oracle");
    if (!oracle || !oracle->isObject())
        return "missing oracle options";
    const json::Value *v = oracle->find("maxProgInsts");
    if (!v || !v->isU64())
        return "oracle.maxProgInsts missing";
    out.oracle.maxProgInsts = v->u64();
    v = oracle->find("lvmStackDepth");
    if (!v)
        return "oracle.lvmStackDepth missing";
    std::string err = json::decode(*v, out.oracle.lvmStackDepth);
    if (!err.empty())
        return "oracle.lvmStackDepth: " + err;
    v = oracle->find("staticCheck");
    if (!v || !v->isBool())
        return "oracle.staticCheck missing";
    out.oracle.staticCheck = v->boolean();
    v = oracle->find("runDense");
    if (!v || !v->isBool())
        return "oracle.runDense missing";
    out.oracle.runDense = v->boolean();
    v = oracle->find("runCore");
    if (!v || !v->isBool())
        return "oracle.runCore missing";
    out.oracle.runCore = v->boolean();

    const json::Value *fault = root.find("fault");
    if (!fault)
        return "missing fault";
    if (!fault->isNull()) {
        if (!fault->isObject())
            return "fault is neither null nor an object";
        out.oracle.fault.enabled = true;
        v = fault->find("killOrdinal");
        if (!v)
            return "fault.killOrdinal missing";
        err = json::decode(*v, out.oracle.fault.killOrdinal);
        if (!err.empty())
            return "fault.killOrdinal: " + err;
        v = fault->find("reg");
        if (!v || !v->isU64() || v->u64() >= 32)
            return "fault.reg missing or out of range";
        out.oracle.fault.reg = static_cast<RegIndex>(v->u64());
    }

    const json::Value *program = root.find("program");
    if (!program)
        return "missing program";
    return prog::moduleFromJson(*program, out.program);
}

OracleReport
replay(const Repro &r)
{
    return runOracle(r.program, r.oracle);
}

} // namespace fuzz
} // namespace dvi
