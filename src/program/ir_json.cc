#include "program/ir_json.hh"

#include <cstdint>
#include <iterator>
#include <limits>

namespace dvi
{
namespace prog
{

namespace
{

bool
parseOp(const std::string &name, IrOp *out)
{
    for (unsigned op = 0; op < std::size(IrOpInfo::table); ++op) {
        if (name == IrOpInfo::table[op].token) {
            *out = static_cast<IrOp>(op);
            return true;
        }
    }
    return false;
}

/** Signed number: non-negative stays exact u64; negative goes
 * through the (exact for these ranges) double path. */
json::Value
num(std::int64_t v)
{
    if (v >= 0)
        return json::Value(static_cast<std::uint64_t>(v));
    return json::Value(static_cast<double>(v));
}

json::Value
instToJson(const IrInst &inst)
{
    json::Value a = json::Value::array();
    a.push(irOpName(inst.op));
    // Trailing-default truncation: find the last field that differs
    // from its default, then emit everything up to it.
    const bool fp = inst.fd || inst.fs1 || inst.fs2;
    const bool args = fp || !inst.args.empty();
    const bool callee = args || inst.callee != -1;
    const bool target = callee || inst.target != -1;
    const bool imm = target || inst.imm != 0;
    const bool src2 = imm || inst.src2 != noVReg;
    const bool src1 = src2 || inst.src1 != noVReg;
    const bool dst = src1 || inst.dst != noVReg;
    if (dst)
        a.push(num(inst.dst));
    if (src1)
        a.push(num(inst.src1));
    if (src2)
        a.push(num(inst.src2));
    if (imm)
        a.push(num(inst.imm));
    if (target)
        a.push(num(inst.target));
    if (callee)
        a.push(num(inst.callee));
    if (args) {
        json::Value av = json::Value::array();
        for (VReg v : inst.args)
            av.push(num(v));
        a.push(std::move(av));
    }
    if (fp) {
        a.push(num(inst.fd));
        a.push(num(inst.fs1));
        a.push(num(inst.fs2));
    }
    return a;
}

/** Fetch element i as an integer, with range checking. */
bool
intAt(const json::Value &a, std::size_t i, std::int64_t lo,
      std::int64_t hi, std::int64_t *out)
{
    if (i >= a.items().size())
        return true;  // absent: keep default
    const json::Value &v = a.items()[i];
    if (!v.isU64() && !v.isF64())
        return false;
    const double d = v.number();
    const std::int64_t n = static_cast<std::int64_t>(d);
    if (static_cast<double>(n) != d || n < lo || n > hi)
        return false;
    *out = n;
    return true;
}

/** Decode member `key` of object `obj` into `out`, at most `limit`:
 * "" on success, else the reason naming `key`. */
template <typename T>
std::string
member(const json::Value &obj, const char *key, T &out,
       T limit = std::numeric_limits<T>::max())
{
    const json::Value *v = obj.find(key);
    if (!v)
        return std::string("missing ") + key;
    std::string err = json::decode(*v, out);
    if (err.empty() && out > limit)
        err = "value " + std::to_string(out) +
              " exceeds the load limit of " + std::to_string(limit);
    return err.empty() ? err : key + (": " + err);
}

std::string
instFromJson(const json::Value &v, IrInst &inst)
{
    if (!v.isArray() || v.items().empty() ||
        !v.items()[0].isString())
        return "instruction is not an [op, ...] array";
    if (!parseOp(v.items()[0].str(), &inst.op))
        return "unknown op '" + v.items()[0].str() + "'";

    std::int64_t dst = 0, src1 = 0, src2 = 0, imm = 0;
    std::int64_t target = -1, callee = -1;
    std::int64_t fd = 0, fs1 = 0, fs2 = 0;
    const std::int64_t vregMax = 0xffffffffll;
    if (!intAt(v, 1, 0, vregMax, &dst))
        return "bad dst";
    if (!intAt(v, 2, 0, vregMax, &src1))
        return "bad src1";
    if (!intAt(v, 3, 0, vregMax, &src2))
        return "bad src2";
    if (!intAt(v, 4, INT32_MIN, INT32_MAX, &imm))
        return "bad imm";
    if (!intAt(v, 5, -1, INT32_MAX, &target))
        return "bad target";
    if (!intAt(v, 6, -1, INT32_MAX, &callee))
        return "bad callee";
    if (v.items().size() > 7) {
        const json::Value &av = v.items()[7];
        if (!av.isArray())
            return "bad args (not an array)";
        for (std::size_t i = 0; i < av.items().size(); ++i) {
            std::int64_t arg = 0;
            if (!intAt(av, i, 0, vregMax, &arg))
                return "bad arg";
            inst.args.push_back(static_cast<VReg>(arg));
        }
    }
    if (!intAt(v, 8, 0, 255, &fd) || !intAt(v, 9, 0, 255, &fs1) ||
        !intAt(v, 10, 0, 255, &fs2))
        return "bad fp register";
    if (v.items().size() > 11)
        return "trailing instruction fields";

    inst.dst = static_cast<VReg>(dst);
    inst.src1 = static_cast<VReg>(src1);
    inst.src2 = static_cast<VReg>(src2);
    inst.imm = static_cast<std::int32_t>(imm);
    inst.target = static_cast<int>(target);
    inst.callee = static_cast<int>(callee);
    inst.fd = static_cast<RegIndex>(fd);
    inst.fs1 = static_cast<RegIndex>(fs1);
    inst.fs2 = static_cast<RegIndex>(fs2);
    return "";
}

} // namespace

std::string
irOpName(IrOp op)
{
    return IrOpInfo::table[static_cast<unsigned>(op)].token;
}

json::Value
moduleToJson(const Module &m)
{
    json::Value root = json::Value::object();
    root.set("name", m.name);
    root.set("mainIndex", num(m.mainIndex));
    root.set("globalWords", num(m.globalWords));
    json::Value procs = json::Value::array();
    for (const Procedure &p : m.procs) {
        json::Value pv = json::Value::object();
        pv.set("name", p.name);
        json::Value params = json::Value::array();
        for (VReg v : p.params)
            params.push(num(v));
        pv.set("params", std::move(params));
        pv.set("localSlots", num(p.numLocalSlots));
        pv.set("nextVReg", num(p.nextVReg));
        json::Value blocks = json::Value::array();
        for (const BasicBlock &b : p.blocks) {
            json::Value bv = json::Value::array();
            for (const IrInst &inst : b.insts)
                bv.push(instToJson(inst));
            blocks.push(std::move(bv));
        }
        pv.set("blocks", std::move(blocks));
        procs.push(std::move(pv));
    }
    root.set("procs", std::move(procs));
    return root;
}

std::string
moduleFromJson(const json::Value &v, Module &out)
{
    if (!v.isObject())
        return "module is not an object";
    out = Module{};
    const json::Value *name = v.find("name");
    if (!name || !name->isString())
        return "missing module name";
    out.name = name->str();

    std::string err = member(v, "mainIndex", out.mainIndex);
    if (err.empty())
        err = member(v, "globalWords", out.globalWords,
                     maxLoadedGlobalWords);
    if (!err.empty())
        return err;

    const json::Value *procs = v.find("procs");
    if (!procs || !procs->isArray())
        return "missing procs array";
    for (std::size_t pi = 0; pi < procs->items().size(); ++pi) {
        const json::Value &pv = procs->items()[pi];
        const std::string where = "proc " + std::to_string(pi);
        if (!pv.isObject())
            return where + ": not an object";
        Procedure proc;
        const json::Value *pn = pv.find("name");
        if (!pn || !pn->isString())
            return where + ": missing name";
        proc.name = pn->str();
        const json::Value *params = pv.find("params");
        if (!params || !params->isArray())
            return where + ": missing params";
        for (std::size_t i = 0; i < params->items().size(); ++i) {
            std::int64_t n = 0;
            if (!intAt(*params, i, 1, 0xffffffffll, &n))
                return where + ": bad param vreg";
            proc.params.push_back(static_cast<VReg>(n));
        }
        err = member(pv, "localSlots", proc.numLocalSlots);
        if (err.empty())
            err = member(pv, "nextVReg", proc.nextVReg,
                         maxLoadedNextVReg);
        if (!err.empty())
            return where + ": " + err;

        const json::Value *blocks = pv.find("blocks");
        if (!blocks || !blocks->isArray())
            return where + ": missing blocks";
        for (std::size_t bi = 0; bi < blocks->items().size(); ++bi) {
            const json::Value &bv = blocks->items()[bi];
            if (!bv.isArray())
                return where + ": block " + std::to_string(bi) +
                       " is not an array";
            BasicBlock block;
            for (std::size_t ii = 0; ii < bv.items().size(); ++ii) {
                IrInst inst;
                err = instFromJson(bv.items()[ii], inst);
                if (!err.empty())
                    return where + ", block " + std::to_string(bi) +
                           ", inst " + std::to_string(ii) + ": " +
                           err;
                block.insts.push_back(std::move(inst));
            }
            proc.blocks.push_back(std::move(block));
        }
        out.procs.push_back(std::move(proc));
    }
    err = out.validate();
    if (!err.empty())
        return "loaded module invalid: " + err;
    return "";
}

} // namespace prog
} // namespace dvi
